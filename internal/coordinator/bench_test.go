package coordinator

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkJobPass is the `dist` workload of benchmark/ as a go-test drive
// for profiles: one Service, one job per iteration at the benchmark's
// range size and cap, served over loopback by 1 and by 2 workers.
//
//	go test -run '^$' -bench JobPass -benchtime 20x -cpuprofile cpu.out ./internal/coordinator/
func BenchmarkJobPass(b *testing.B) {
	for _, bug := range []string{"ReplicaDB-2", "Roshi-3"} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", bug, workers), func(b *testing.B) {
				svc, err := New(Options{Addr: "127.0.0.1:0", JournalRoot: b.TempDir(), LeaseTTL: 2 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j, err := svc.Submit(JobSpec{Bug: bug, Mode: "erpi", Seed: 11, MaxInterleavings: 2500, RangeSize: 32})
					if err != nil {
						b.Fatal(err)
					}
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							_ = RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: fmt.Sprintf("w%d", w), Job: j.ID()})
						}(w)
					}
					<-j.Done()
					wg.Wait()
					if st := j.Status(); st.State != StateDone || st.Explored != 2500 {
						b.Fatalf("pass ended %s with %d explored", st.State, st.Explored)
					}
				}
			})
		}
	}
}

package crdt

import (
	"encoding/json"
	"fmt"
)

// This file gives the sets that are on no replay path (GSet, TwoPhaseSet,
// LWWSet) a stable JSON form so that replicas can ship full states over
// the wire and the checkpoint store can snapshot them. The encodings
// expose exactly the join-relevant state (including tombstones), so
// decode(encode(x)) is join-equivalent to x. The types the evaluation
// subjects serialize on every explored interleaving have a binary form
// instead (binary.go).

type gSetJSON struct {
	Members []string `json:"members"`
}

// MarshalJSON implements json.Marshaler.
func (g *GSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(gSetJSON{Members: g.Elements()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *GSet) UnmarshalJSON(data []byte) error {
	var w gSetJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("crdt: gset: %w", err)
	}
	g.members = make(map[string]struct{}, len(w.Members))
	for _, m := range w.Members {
		g.members[m] = struct{}{}
	}
	return nil
}

type twoPhaseSetJSON struct {
	Added   *GSet `json:"added"`
	Removed *GSet `json:"removed"`
}

// MarshalJSON implements json.Marshaler.
func (s *TwoPhaseSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(twoPhaseSetJSON{Added: s.added, Removed: s.removed})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *TwoPhaseSet) UnmarshalJSON(data []byte) error {
	w := twoPhaseSetJSON{Added: NewGSet(), Removed: NewGSet()}
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("crdt: 2pset: %w", err)
	}
	s.added, s.removed = w.Added, w.Removed
	return nil
}

type lwwSetJSON struct {
	Bias Bias            `json:"bias"`
	Adds map[string]Time `json:"adds"`
	Rems map[string]Time `json:"rems"`
}

// MarshalJSON implements json.Marshaler.
func (s *LWWSet) MarshalJSON() ([]byte, error) {
	adds, rems := s.Dump()
	return json.Marshal(lwwSetJSON{Bias: s.bias, Adds: adds, Rems: rems})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *LWWSet) UnmarshalJSON(data []byte) error {
	var w lwwSetJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("crdt: lwwset: %w", err)
	}
	s.bias = w.Bias
	s.adds = make(map[string]Time, len(w.Adds))
	s.rems = make(map[string]Time, len(w.Rems))
	s.Load(w.Adds, w.Rems)
	return nil
}

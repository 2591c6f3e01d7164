module github.com/er-pi/erpi/benchmark

go 1.22

require github.com/er-pi/erpi v0.0.0

replace github.com/er-pi/erpi => ../

module updatec/benchmark

go 1.24

require updatec v0.0.0

replace updatec => ../

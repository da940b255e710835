module hashcore/benchmark

go 1.24

require hashcore v0.0.0

replace hashcore => ../

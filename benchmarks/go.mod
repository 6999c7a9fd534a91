module parcluster/benchmarks

go 1.21

require parcluster v0.0.0

replace parcluster => ../

module masc/benchmark

go 1.22

require masc v0.0.0

replace masc => ../

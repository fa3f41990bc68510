module exaloglog/benchmark

go 1.22

require exaloglog v0.0.0

replace exaloglog => ../

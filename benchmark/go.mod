module fedmp/benchmark

go 1.22

require fedmp v0.0.0

replace fedmp => ../

module vectorwise/bench

go 1.24

require vectorwise v0.0.0

replace vectorwise => ../

module tpilayout/bench

go 1.22

require tpilayout v0.0.0

replace tpilayout => ../

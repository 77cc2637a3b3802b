module timewheel/bench

go 1.23

require timewheel v0.0.0

replace timewheel => ../

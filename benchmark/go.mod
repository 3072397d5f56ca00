module p4ce/benchmark

go 1.22

require p4ce v0.0.0

replace p4ce => ../

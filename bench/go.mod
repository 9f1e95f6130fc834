module procgroup/bench

go 1.24

require procgroup v0.0.0

replace procgroup => ../

module github.com/gostorm/gostorm/bench

go 1.24

require github.com/gostorm/gostorm v0.0.0

replace github.com/gostorm/gostorm => ../

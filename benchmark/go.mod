module rphash/benchmark

go 1.24

require rphash v0.0.0

replace rphash => ../

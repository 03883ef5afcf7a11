module acdc/bench

go 1.22

require acdc v0.0.0

replace acdc => ../

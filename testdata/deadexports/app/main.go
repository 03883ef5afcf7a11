// Command app is the fixture's one program.
package main

import "deadfix/lib"

func main() {
	var p lib.Pool[int]
	p.Put(1)
	var s lib.Shape = lib.Square{Side: p.Get()}
	var err error = lib.Fault{}
	c := lib.Config{Rate: 1}.Defaults()
	c.Burst = 2
	limit := &c.Limit
	*limit = 3
	println(s.Area(), lib.Algo{}.Name(), err.Error(), c.Depth, lib.Gauge{Level: 1}.Level)
}

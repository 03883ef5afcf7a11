// Command app is the fixture's one program.
package main

import "deadfix/lib"

func main() {
	var p lib.Pool[int]
	p.Put(1)
	var s lib.Shape = lib.Square{Side: p.Get()}
	var err error = lib.Fault{}
	println(s.Area(), lib.Algo{}.Name(), err.Error())
}

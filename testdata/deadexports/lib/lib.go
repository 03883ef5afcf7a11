// Package lib plants the declarations the dead-export finder must tell
// apart: five dead, the rest reached in ways a name search misses; and the
// config fields the knob finder must tell apart: one unwritten.
package lib

// Pool is generic; app calls Get only through an instantiation.
type Pool[T any] struct{ items []T }

// Put stores v.
func (p *Pool[T]) Put(v T) { p.items = append(p.items, v) }

// Get returns the last value stored.
func (p *Pool[T]) Get() T { return p.items[len(p.items)-1] }

// Shape is the only way app reaches Square's Area. No program calls
// Perimeter, the planted dead interface method.
type Shape interface {
	Area() int
	Perimeter() int
}

// Square implements Shape.
type Square struct{ Side int }

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter implements Shape; it is dead with the method it implements.
func (s Square) Perimeter() int { return 4 * s.Side }

// Gauge is reached: app builds one.
type Gauge struct{ Level int }

// Area shares Shape.Area's name but not its signature, so Shape cannot call
// it: it is dead although Shape.Area and Gauge are reached.
func (g Gauge) Area(scale int) int { return g.Level * scale }

// Base carries a method its embedders promote.
type Base struct{}

// Name is reached only as Algo's promoted method.
func (Base) Name() string { return "base" }

// Algo embeds Base.
type Algo struct{ Base }

// Fault's Error is reached only through the universe's error interface,
// which no package declares.
type Fault struct{}

// Error implements error.
func (Fault) Error() string { return "fault" }

// Unused is the planted dead export.
func Unused() int { return helper() }

// helper is reached only from Unused.
func helper() int { return 1 }

// Config is the fixture's config: app writes Rate as a composite-literal key,
// Burst by assignment and Limit through its address. Depth, the planted
// knob, only its own package writes.
type Config struct {
	Rate, Burst, Limit, Depth int
}

// Defaults fills Depth.
func (c Config) Defaults() Config {
	c.Depth = 4
	return c
}

// Package lib plants the declarations the dead-export finder must tell
// apart: two dead, the rest reached in ways a name search misses.
package lib

// Pool is generic; app calls Get only through an instantiation.
type Pool[T any] struct{ items []T }

// Put stores v.
func (p *Pool[T]) Put(v T) { p.items = append(p.items, v) }

// Get returns the last value stored.
func (p *Pool[T]) Get() T { return p.items[len(p.items)-1] }

// Shape is the only way app reaches Square's Area.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{ Side int }

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

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

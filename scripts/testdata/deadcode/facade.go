// Package fixture is the root facade of a small tree that holds one of
// each finding the repository lints report.
package fixture

import (
	"fixture/internal/lib"
	"fixture/internal/nodoc"
)

// Thing re-exports lib.Thing, so its exported methods are reachable.
type Thing = lib.Thing

// Level reads the undocumented package.
func Level() int { return nodoc.Level }

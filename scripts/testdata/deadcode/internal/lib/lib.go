// Package lib declares one of each case the dead-code gate tells apart.
package lib

// Called has a caller in cmd/tool.
func Called() string {
	var h hidden
	return h.String()
}

// Uncalled is called only by its own test and by itself.
func Uncalled(n int) int {
	if n == 0 {
		return 0
	}
	return Uncalled(n - 1)
}

// Oracle has no non-test caller, but it is allowlisted.
func Oracle() {}

// Thing is re-exported by the root facade.
type Thing struct{}

// Aliased is reachable through the root alias.
func (Thing) Aliased() {}

type hidden struct{}

// String is called by fmt through fmt.Stringer.
func (hidden) String() string { return "hidden" }

// Orphan is selected only inside itself.
func (h hidden) Orphan() { h.Orphan() }

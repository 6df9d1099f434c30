// Package hooks mirrors the real internal/hooks chaining helper for the
// hotchain fixture.
package hooks

// Chain composes two single-value observers.
func Chain[T any](prev, next func(T)) func(T) {
	if prev == nil {
		return next
	}
	return func(v T) {
		prev(v)
		next(v)
	}
}

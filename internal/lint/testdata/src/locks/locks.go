// Fixture for the locks analyzer, which runs in every package (the name
// deliberately stays outside the deterministic set).
package locksfix

import "sync"

type box struct {
	mu  sync.Mutex
	val int
}

func unpaired(b *box) int {
	b.mu.Lock() // want "b\.mu\.Lock\(\) without a paired Unlock"
	if b.val > 0 {
		return b.val
	}
	b.mu.Unlock()
	return 0
}

// paired defers the release right after the acquire: clean.
func paired(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val
}

// sequential releases explicitly with no return in between: clean.
func sequential(b *box) {
	b.mu.Lock()
	b.val++
	b.mu.Unlock()
}

// Package badpkg is a barbervet fixture: every declaration below violates
// one of the linter's rules (R001-R005, R011). It lives under testdata so the go
// tool never builds it; barbervet's tests and the CLI integration test point
// the linter at this directory and expect a non-zero exit.
package badpkg

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
)

// Counter holds a mutex, so passing it by value copies the lock.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Bump has a value receiver: R003.
func (c Counter) Bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Merge takes a Counter by value: R003.
func Merge(a Counter) int { return a.n }

// Roll draws from the unseeded global source: R001.
func Roll() int { return rand.Intn(6) }

// Shout prints to stdout from library code: R002.
func Shout() { fmt.Println("loud") }

type fakeDB struct{}

// Execute mimics engine.DB's error-returning signature.
func (fakeDB) Execute(sql string) (int, error) { return 0, nil }

// Drop discards Execute's error: R004.
func Drop(db fakeDB) { db.Execute("SELECT 1") }

// Detach mints a root context inside library code instead of accepting the
// caller's ctx: R005.
func Detach(db fakeDB) (int, error) {
	ctx := context.Background()
	_ = ctx
	return db.Execute("SELECT 1")
}

// Leak fires a goroutine with no WaitGroup join, so a cancelled caller can
// return while it still runs: R005, and R011 for starting it outside
// internal/fanout.
func Leak() {
	go Roll()
}

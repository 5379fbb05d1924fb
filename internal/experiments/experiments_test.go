package experiments

import (
	"io"
	"runtime"
	"testing"
	"time"
)

// TestExperiments runs every experiment of All at fibench's scale: each
// one fails when the paper's shape it reproduces breaks. Whether it passes
// or fails, an experiment stops what it started: the goroutine count must
// settle back to where it was before the next one runs.
func TestExperiments(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "frontdoor" {
				t.Skip("10 000 sessions bounding a p99; TestFrontDoorShedsLowProtectsHigh runs E17 at 200")
			}
			before := runtime.NumGoroutine()
			if err := e.Run(io.Discard); err != nil {
				t.Error(err)
			}
			if n := settledGoroutines(before, 5*time.Second); n > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines before the experiment, %d five seconds after it returned:\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// settledGoroutines polls the goroutine count until it is at most want or
// the wait runs out, and returns the last count.
func settledGoroutines(want int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontDoorShedsLowProtectsHigh is E17's acceptance check at smoke
// scale: the run itself fails unless every high-priority statement was
// served within the bound while overload shed low-priority ones.
func TestFrontDoorShedsLowProtectsHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("drives hundreds of concurrent sessions")
	}
	if err := FrontDoor(io.Discard, 200); err != nil {
		t.Fatal(err)
	}
}

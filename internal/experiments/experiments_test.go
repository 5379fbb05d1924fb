package experiments

import (
	"io"
	"testing"
)

// TestExperiments runs every experiment of All at fibench's scale: each
// one fails when the paper's shape it reproduces breaks.
func TestExperiments(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "frontdoor" {
				t.Skip("10 000 sessions bounding a p99; TestFrontDoorShedsLowProtectsHigh runs E17 at 200")
			}
			if err := e.Run(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
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

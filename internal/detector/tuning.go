package detector

import (
	"encoding/json"
	"fmt"
	"io"

	"segugio/internal/belief"
)

// DefaultLBPThreshold is the belief at or above which the LBP plugin
// reports a detection. Labeled-malware nodes hold beliefs near the
// 0.99 prior; unknown domains tightly coupled to infected machines
// approach it.
const DefaultLBPThreshold = 0.9

// Tuning holds the hot-reloadable plugin knobs. The zero value selects
// every default.
type Tuning struct {
	// LBP parameterizes the belief-propagation engine; zero fields
	// select the belief package defaults.
	LBP belief.Config
	// LBPThreshold is the LBP detection threshold (default
	// DefaultLBPThreshold).
	LBPThreshold float64
}

func (t Tuning) withDefaults() Tuning {
	if t.LBPThreshold <= 0 || t.LBPThreshold >= 1 {
		t.LBPThreshold = DefaultLBPThreshold
	}
	return t
}

// tuningFile is the on-disk JSON shape of -detector-config:
//
//	{"lbp": {"epsilon": 0.02, "damping": 0, "maxIterations": 15,
//	         "tolerance": 1e-4, "threshold": 0.9}}
//
// Absent fields keep their defaults.
type tuningFile struct {
	LBP struct {
		Epsilon       float64 `json:"epsilon"`
		Damping       float64 `json:"damping"`
		MaxIterations int     `json:"maxIterations"`
		Tolerance     float64 `json:"tolerance"`
		PriorMalware  float64 `json:"priorMalware"`
		Threshold     float64 `json:"threshold"`
	} `json:"lbp"`
}

// LoadTuning parses the -detector-config JSON. A zero or absent field
// selects its default, so the file only needs the knobs it changes.
func LoadTuning(r io.Reader) (Tuning, error) {
	var f tuningFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Tuning{}, fmt.Errorf("detector: tuning config: %w", err)
	}
	return Tuning{
		LBP: belief.Config{
			Epsilon:       f.LBP.Epsilon,
			Damping:       f.LBP.Damping,
			MaxIterations: f.LBP.MaxIterations,
			Tolerance:     f.LBP.Tolerance,
			PriorMalware:  f.LBP.PriorMalware,
		},
		LBPThreshold: f.LBP.Threshold,
	}, nil
}

package experiments

import (
	"encoding/json"

	"damq/internal/stats"
)

// Report is the machine-readable form of the full evaluation, for
// downstream tooling (plotting, regression dashboards). The registry's
// sections fill it as they run; a field is omitted when its experiment
// did not run, except the ablations, which every full report runs.
type Report struct {
	Scale   Scale           `json:"scale"`
	Table1  *Table1Result   `json:"table1,omitempty"`
	Table2  *Table2Result   `json:"table2,omitempty"`
	Table3  *Table3Result   `json:"table3,omitempty"`
	Table4  []LatencyRow    `json:"table4,omitempty"`
	Table5  []LatencyRow    `json:"table5,omitempty"`
	Table6  []Table6Row     `json:"table6,omitempty"`
	VarLen  []VarLenRow     `json:"varlen,omitempty"`
	Async   []AsyncRow      `json:"async,omitempty"`
	TreeSat []TreeSatRow    `json:"treesat,omitempty"`
	Ablate  AblationSection `json:"ablations"`

	// Curves keeps the latency-vs-throughput curves of the last figure
	// entry run, figure3 or modern, for omegasim's SVG plot. The JSON
	// schema does not carry them.
	Curves []stats.Series `json:"-"`
}

// AblationSection groups the ablation results.
type AblationSection struct {
	Connectivity []ConnectivityRow `json:"connectivity,omitempty"`
	Arbitration  []ArbitrationRow  `json:"arbitration,omitempty"`
	Burstiness   []BurstRow        `json:"burstiness,omitempty"`
}

// JSON marshals the report with indentation.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

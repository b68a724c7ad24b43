package stats

import "fmt"

// SummaryState is the serializable state of a Summary, exposed for the
// simulator checkpoint codec (DESIGN.md §13). Restoring it and adding
// further observations reproduces the uninterrupted accumulator
// bit-for-bit: Welford's update is a pure function of (state, x).
type SummaryState struct {
	N    int64
	Mean float64
	M2   float64
	Min  float64
	Max  float64
}

// Save captures the accumulator state.
func (s *Summary) Save() SummaryState {
	return SummaryState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// Load overwrites the accumulator with a previously saved state. A
// negative observation count is structurally impossible and rejected.
func (s *Summary) Load(st SummaryState) error {
	if st.N < 0 {
		return fmt.Errorf("stats: summary with negative count %d", st.N)
	}
	s.n, s.mean, s.m2, s.min, s.max = st.N, st.Mean, st.M2, st.Min, st.Max
	return nil
}

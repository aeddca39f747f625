package core

import "time"

// MemberStats describes one portfolio member's share of a portfolio run —
// the paper's observation operationalized: no single exploration strategy
// finds all bugs, so practitioners race several and take the first hit.
// Every field except Elapsed is canonical: derived from the executions at
// or below the winning position of the plan, and so identical for a fixed
// seed at any worker count.
type MemberStats struct {
	// Scheduler is the member's scheduler name.
	Scheduler string
	// Executions is the number of executions attributed to the member.
	// When a bug wins the race, only iterations at or below the winning
	// position in the canonical global order count (the executions a
	// round-robin interleaving of the members would have performed).
	Executions int
	// TotalSteps is the scheduling steps across the counted executions.
	TotalSteps int64
	// Elapsed is the cumulative wall-clock time spent inside the member's
	// executions, wherever in the worker pool they ran. Executions run
	// concurrently, so these can sum to more than Result.Elapsed; it is
	// the one field that is a measurement, not a function of the seed.
	Elapsed time.Duration
	// Winner reports that this member found the winning bug.
	Winner bool
}

// memberSeed derives portfolio member m's base seed from the run seed.
// It is a pure function of (seed, m), so each member's execution i gets
// seed derived purely from (Seed, m, i) via execSeed — never from worker
// scheduling — which is what makes portfolio results reproducible.
func memberSeed(seed int64, m int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(0xD1B54A32D192ED03+uint64(m))))
}

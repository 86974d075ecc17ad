package main

import "math/rand"

// satSpec is the make-up of one service workload's generated problems.
type satSpec struct {
	Vars         int     // variable universe
	Ratio        float64 // base clauses per variable; 0 extends the empty root
	DeltaClauses int     // clauses per delta
	DeltaWidth   int     // literals per delta clause
	UnsatPct     int     // share of deltas, in percent, carrying the unsat block
}

// baseWidth is the clause width of generated base problems (3-SAT).
const baseWidth = 3

// planted generates clauses that a hidden assignment satisfies, so the
// verdict of every problem built from them is known without a solver:
// SAT, unless a delta on its path carries the unsat block.
type planted struct {
	spec   satSpec
	assign []bool // assign[v] is variable v's hidden value; index 0 unused
	rng    *rand.Rand
}

// newPlanted draws the hidden assignment for one stream of the seed.
// Distinct streams (connections, replays) get independent clause
// sequences over the same assignment.
func newPlanted(spec satSpec, seed int64, stream int64) *planted {
	arng := rand.New(rand.NewSource(seed))
	assign := make([]bool, spec.Vars+1)
	for v := 1; v <= spec.Vars; v++ {
		assign[v] = arng.Intn(2) == 1
	}
	return &planted{spec: spec, assign: assign, rng: rand.New(rand.NewSource(seed*1_000_003 + stream + 1))}
}

// clause draws width distinct variables with random signs; if the hidden
// assignment satisfies none of the literals, one of them is negated.
func (p *planted) clause(width int) []int {
	cl := make([]int, 0, width)
	for len(cl) < width {
		v := 1 + p.rng.Intn(p.spec.Vars)
		dup := false
		for _, l := range cl {
			if l == v || l == -v {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if p.rng.Intn(2) == 0 {
			v = -v
		}
		cl = append(cl, v)
	}
	for _, l := range cl {
		if p.satisfies(l) {
			return cl
		}
	}
	i := p.rng.Intn(width)
	cl[i] = -cl[i]
	return cl
}

func (p *planted) satisfies(lit int) bool {
	if lit > 0 {
		return p.assign[lit]
	}
	return !p.assign[-lit]
}

// base returns the planted base problem: Ratio×Vars clauses of width 3.
func (p *planted) base() [][]int {
	n := int(p.spec.Ratio * float64(p.spec.Vars))
	out := make([][]int, n)
	for i := range out {
		out[i] = p.clause(baseWidth)
	}
	return out
}

// delta returns one extension. A UnsatPct share also carries every sign
// combination of two variables — four clauses no assignment satisfies —
// so the extended problem, and everything built on it, is UNSAT.
func (p *planted) delta() (clauses [][]int, unsat bool) {
	clauses = make([][]int, 0, p.spec.DeltaClauses+4)
	for i := 0; i < p.spec.DeltaClauses; i++ {
		clauses = append(clauses, p.clause(p.spec.DeltaWidth))
	}
	if p.rng.Intn(100) < p.spec.UnsatPct {
		a := 1 + p.rng.Intn(p.spec.Vars)
		b := 1 + p.rng.Intn(p.spec.Vars-1)
		if b >= a {
			b++
		}
		clauses = append(clauses, []int{a, b}, []int{a, -b}, []int{-a, b}, []int{-a, -b})
		unsat = true
	}
	return clauses, unsat
}

package main

import (
	"fmt"

	"repro/internal/solver"
)

// node is one problem in a client's tree: the base, or a parent plus a
// delta. The checks below derive every expected answer from this path
// alone; they never consult the solver.
type node struct {
	parent *node
	delta  [][]int // the base's clauses for the root of the tree
	unsat  bool    // a delta on the path carries the unsat block
	depth  int     // extends below the base
	base   int     // which of the workload's bases the tree grows from

	// Written once by the reply collector, read by later operations that
	// the issuing window orders after that reply.
	id      uint64
	verdict solver.Status
	ok      bool // the extend that created it succeeded
}

// checkExtend checks one extend reply against the node it created.
func checkExtend(n *node, verdict solver.Status, model []bool) error {
	want := solver.Sat
	if n.unsat {
		want = solver.Unsat
	}
	if n.parent != nil && n.parent.verdict == solver.Unsat && verdict != solver.Unsat {
		return fmt.Errorf("id %d is %v but its parent %d is UNSAT", n.id, verdict, n.parent.id)
	}
	if verdict != want {
		return fmt.Errorf("id %d: verdict %v, planted construction says %v", n.id, verdict, want)
	}
	if verdict == solver.Sat {
		return checkModel(n, model)
	}
	return nil
}

// checkModel checks model against every clause on the path from the
// tree's base to n.
func checkModel(n *node, model []bool) error {
	for p := n; p != nil; p = p.parent {
		for _, cl := range p.delta {
			if !clauseHolds(cl, model) {
				return fmt.Errorf("id %d: model violates clause %v", n.id, cl)
			}
		}
	}
	return nil
}

func clauseHolds(cl []int, model []bool) bool {
	for _, l := range cl {
		v, want := l, true
		if l < 0 {
			v, want = -l, false
		}
		if v < len(model) && model[v] == want {
			return true
		}
	}
	return false
}

// queensBoards is the number of 9-queens solutions (OEIS A000170).
const queensBoards = 352

// checkBoards checks one enumeration's printed boards: exactly
// queensBoards distinct lines, each n digits placing one queen per
// column with no two queens on a row or a diagonal.
func checkBoards(n int, boards [][]byte) error {
	if len(boards) != queensBoards {
		return fmt.Errorf("queens: %d boards, want %d", len(boards), queensBoards)
	}
	seen := make(map[string]bool, len(boards))
	for _, b := range boards {
		if err := checkBoard(n, b); err != nil {
			return err
		}
		if seen[string(b)] {
			return fmt.Errorf("queens: board %q printed twice", b)
		}
		seen[string(b)] = true
	}
	return nil
}

func checkBoard(n int, b []byte) error {
	if len(b) != n+1 || b[n] != '\n' {
		return fmt.Errorf("queens: malformed board %q", b)
	}
	for c := 0; c < n; c++ {
		r := int(b[c]) - '0'
		if r < 0 || r >= n {
			return fmt.Errorf("queens: board %q: row %q out of range", b, b[c])
		}
		for c2 := 0; c2 < c; c2++ {
			r2 := int(b[c2]) - '0'
			if r == r2 || r-r2 == c-c2 || r2-r == c-c2 {
				return fmt.Errorf("queens: board %q: queens in columns %d and %d attack", b, c2, c)
			}
		}
	}
	return nil
}

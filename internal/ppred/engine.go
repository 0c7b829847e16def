package ppred

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"fulltext/internal/core"
	"fulltext/internal/invlist"
	"fulltext/internal/pred"
)

// OrderOptions tunes the NPRED permutation strategy used by RunAll.
type OrderOptions struct {
	// FullOrders permutes all block columns (the paper's toks_Q! worst
	// case) instead of only the variables appearing in negative predicates
	// (the "necessary partial orders" of Section 5.6.2).
	FullOrders bool
	// MaxThreads aborts if the permutation product exceeds this bound
	// (default 50000).
	MaxThreads int
	// Parallel runs the ordering threads on goroutines (bounded by
	// GOMAXPROCS). Section 5.6.2 calls the per-ordering evaluations
	// "threads"; each one scans its own cursors, so they share nothing but
	// the read-only index.
	Parallel bool
}

// Run executes a PPRED plan (no negative predicates) and returns the
// qualifying node ids in order. stats may be nil.
func (p *Plan) Run(ix *invlist.Index, reg *pred.Registry, stats *Stats) ([]core.NodeID, error) {
	if p.HasNegative() {
		return nil, fmt.Errorf("ppred: plan has negative predicates; use RunAll (NPRED)")
	}
	return p.RunOrdered(ix, reg, nil, stats)
}

// RunOrdered executes the plan as a single thread with an explicit cursor
// ordering per negative block. orders maps block id to a permutation of
// that block's order variables; it may be nil when the plan has no negative
// blocks.
func (p *Plan) RunOrdered(ix *invlist.Index, reg *pred.Registry, orders map[int][]string, stats *Stats) ([]core.NodeID, error) {
	return p.runThread(ix, reg, orders, stats, OrderOptions{})
}

func (p *Plan) runThread(ix *invlist.Index, reg *pred.Registry, orders map[int][]string, stats *Stats, opts OrderOptions) ([]core.NodeID, error) {
	if stats == nil {
		stats = &Stats{}
	}
	stats.Threads++
	ctx := &execCtx{ix: ix, reg: reg, stats: stats, orders: orders, opts: opts}
	cur, err := p.root.instantiate(ctx)
	if err != nil {
		return nil, err
	}
	var out []core.NodeID
	for {
		node, ok := cur.AdvanceNode()
		if !ok {
			return out, nil
		}
		out = append(out, node)
	}
}

// RunAll executes the plan under the NPRED strategy of Section 5.6.2: one
// thread per combination of block orderings, node sets unioned. Plans
// without negative predicates run as a single thread.
func (p *Plan) RunAll(ix *invlist.Index, reg *pred.Registry, stats *Stats, opts OrderOptions) ([]core.NodeID, error) {
	if stats == nil {
		stats = &Stats{}
	}
	blocks := p.negBlocks
	if len(blocks) == 0 {
		return p.runThread(ix, reg, nil, stats, opts)
	}
	if err := p.ownThreads(opts); err != nil {
		return nil, err
	}
	perBlock := make([][][]string, len(blocks))
	for i, b := range blocks {
		perBlock[i] = Permutations(b.orderVars(opts))
	}

	// Materialize the cartesian product of per-block orderings.
	var assignments []map[int][]string
	idx := make([]int, len(blocks))
	for {
		orders := make(map[int][]string, len(blocks))
		for i, b := range blocks {
			orders[b.ID] = perBlock[i][idx[i]]
		}
		assignments = append(assignments, orders)
		carry := len(blocks) - 1
		for carry >= 0 {
			idx[carry]++
			if idx[carry] < len(perBlock[carry]) {
				break
			}
			idx[carry] = 0
			carry--
		}
		if carry < 0 {
			break
		}
	}

	perThread := make([][]core.NodeID, len(assignments))
	if opts.Parallel && len(assignments) > 1 {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(assignments) {
			workers = len(assignments)
		}
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			next     int
			firstErr error
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if firstErr != nil || next >= len(assignments) {
						mu.Unlock()
						return
					}
					i := next
					next++
					mu.Unlock()

					local := &Stats{}
					nodes, err := p.runThread(ix, reg, assignments[i], local, opts)

					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					perThread[i] = nodes
					stats.Add(*local)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	} else {
		for i, orders := range assignments {
			nodes, err := p.runThread(ix, reg, orders, stats, opts)
			if err != nil {
				return nil, err
			}
			perThread[i] = nodes
		}
	}

	seen := make(map[core.NodeID]bool)
	var out []core.NodeID
	for _, nodes := range perThread {
		for _, n := range nodes {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

const defaultMaxThreads = 50000

// orderVars returns the variables whose orderings RunAll enumerates for b.
func (b *BlockOrder) orderVars(opts OrderOptions) []string {
	if opts.FullOrders {
		return b.AllVars
	}
	return b.Vars
}

// ownThreads returns the error RunAll returns when p's ordering threads —
// the product over its negative blocks of (ordered variables)! — exceed
// opts.MaxThreads. It counts without materializing any ordering, and the
// product saturates instead of overflowing.
func (p *Plan) ownThreads(opts OrderOptions) error {
	limit := opts.MaxThreads
	if limit <= 0 {
		limit = defaultMaxThreads
	}
	total := 1
	for _, b := range p.negBlocks {
		for k := 2; k <= len(b.orderVars(opts)); k++ {
			if total > math.MaxInt/k {
				total = math.MaxInt
			} else {
				total *= k
			}
		}
		if total > limit {
			return fmt.Errorf("ppred: %d ordering threads exceed limit %d", total, limit)
		}
	}
	return nil
}

// CheckThreads reports the thread-limit error Run or RunAll would return
// for p under opts on any index: from p itself or from any closed sub-plan
// (a NOT operand or a node-union branch), each of which runs its own
// permutation union when instantiated. A planner calls it to decide, once
// per query, whether the pipelined engines can run the query at all.
func (p *Plan) CheckThreads(opts OrderOptions) error {
	if err := p.ownThreads(opts); err != nil {
		return err
	}
	for _, sub := range subPlans(p.root, nil) {
		if err := sub.CheckThreads(opts); err != nil {
			return err
		}
	}
	return nil
}

// subPlans appends the closed sub-plans directly under n to out, in the
// order instantiation runs them.
func subPlans(n planNode, out []*Plan) []*Plan {
	switch x := n.(type) {
	case *pnBlock:
		for _, pr := range x.producers {
			out = subPlans(pr, out)
		}
		out = append(out, x.anti...)
	case *pnUnion1:
		out = subPlans(x.r, subPlans(x.l, out))
	case *pnNodeUnion:
		out = append(out, x.branches...)
	}
	return out
}

// Permutations returns all permutations of vars (Heap's algorithm). The
// empty input has one permutation: the empty ordering.
func Permutations(vars []string) [][]string {
	n := len(vars)
	if n == 0 {
		return [][]string{nil}
	}
	cur := append([]string(nil), vars...)
	var out [][]string
	c := make([]int, n)
	out = append(out, append([]string(nil), cur...))
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				cur[0], cur[i] = cur[i], cur[0]
			} else {
				cur[c[i]], cur[i] = cur[i], cur[c[i]]
			}
			out = append(out, append([]string(nil), cur...))
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return out
}

// Explain renders the plan as an indented operator tree in the style of
// Figure 4.
func (p *Plan) Explain() string {
	var b []byte
	b = explainNode(p.root, 0, b)
	return string(b)
}

func explainNode(n planNode, depth int, b []byte) []byte {
	ind := make([]byte, depth*2)
	for i := range ind {
		ind[i] = ' '
	}
	switch x := n.(type) {
	case *pnScan:
		b = append(b, ind...)
		b = append(b, fmt.Sprintf("scan (%q) -> %s\n", x.tok, x.v)...)
	case *pnBlock:
		for range x.anti {
			b = append(b, ind...)
			b = append(b, "anti-join\n"...)
			ind = append(ind, ' ', ' ')
			depth++
		}
		for i := len(x.selects) - 1; i >= 0; i-- {
			s := x.selects[i]
			b = append(b, ind...)
			b = append(b, fmt.Sprintf("%s (%s)\n", s.def.Name, joinArgs(s.args, s.consts))...)
			ind = append(ind, ' ', ' ')
			depth++
		}
		if len(x.producers) > 1 {
			b = append(b, ind...)
			b = append(b, "join\n"...)
			for _, p := range x.producers {
				b = explainNode(p, depth+1, b)
			}
		} else {
			b = explainNode(x.producers[0], depth, b)
		}
		for _, a := range x.anti {
			b = explainNode(a.root, depth+1, b)
		}
	case *pnUnion1:
		b = append(b, ind...)
		b = append(b, "union\n"...)
		b = explainNode(x.l, depth+1, b)
		b = explainNode(x.r, depth+1, b)
	case *pnNodeUnion:
		b = append(b, ind...)
		b = append(b, "node-union\n"...)
		for _, br := range x.branches {
			b = explainNode(br.root, depth+1, b)
		}
	}
	return b
}

func joinArgs(args []string, consts []int) string {
	out := ""
	for i, a := range args {
		if i > 0 {
			out += ","
		}
		out += a
	}
	for _, c := range consts {
		out += fmt.Sprintf(",%d", c)
	}
	return out
}

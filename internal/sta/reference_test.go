package sta

import (
	"time"

	"repro/internal/core"
)

// analyzeReference is the every-gate reference the kernel oracles compare
// the propagation walk against: seed the stimulus, then visit every gate of
// every level, serially and in netlist order, committing whatever each one
// produces. No worklist, no cutoff, no parallelism — the naive schedule the
// event-driven walk must be bit-identical to, arrivals, verdicts and
// workload counters alike. GatesScheduled counts every gate it visited.
func (c *Circuit) analyzeReference(events []PIEvent, mode Mode, opt Options) (*Result, error) {
	start := time.Now()
	p, err := c.Compile()
	if err != nil {
		return nil, err
	}
	res, err := p.seed(events, mode, 0)
	if err != nil {
		return nil, err
	}
	res.gates = p.gateList
	res.pulseFiltering = opt.PulseFiltering
	res.Stats.Workers = 1
	res.Stats.Levels = len(p.levelIdx)
	var evs []core.InputEvent
	for _, level := range p.levelIdx {
		for _, gi := range level {
			g := p.gateList[gi]
			o := evalGate(g, res, mode, &evs, gateMult(opt.Perturb, gi))
			if o.err != nil {
				return nil, o.err
			}
			res.Stats.GatesScheduled++
			res.Stats.tally(dirArrivals{a: o.a, has: o.has}, 1)
			if opt.PulseFiltering {
				applyPulseFilter(g, &o, res)
			}
			for d := range o.a {
				if o.has[d] {
					da := res.slot(g.Out)
					da.a[d] = o.a[d]
					da.has[d] = true
				}
			}
		}
	}
	res.Stats.Wall = time.Since(start)
	return res, nil
}

package macromodel

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/table"
	"repro/internal/waveform"
)

// Clone builds an independent GateSim over a fresh copy of the cell, for
// concurrent characterization workers.
func (g *GateSim) Clone() *GateSim {
	cell := g.Cell
	fresh, err := cellsNew(cell)
	if err != nil {
		panic(fmt.Sprintf("macromodel: clone: %v", err))
	}
	return &GateSim{Cell: fresh, Opt: g.Opt, Th: g.Th, Settle: g.Settle}
}

// SingleInputModel is the characterized D(1)/T(1) macromodel of one
// (pin, input-direction) arc: delay and output transition time versus input
// transition time, stored on a log-spaced τ axis and interpolated in ln(τ).
type SingleInputModel struct {
	Pin int                `json:"pin"`
	Dir waveform.Direction `json:"dir"`

	// TauAxis is the characterized input-transition-time grid (seconds).
	TauAxis []float64 `json:"tauAxis"`
	// Delay[i] and OutTT[i] are the measured delay and output transition
	// time at TauAxis[i].
	Delay []float64 `json:"delay"`
	OutTT []float64 `json:"outTT"`

	// NormLoad[i] is the paper's dimensionless load CL/(Kn·Vdd·τ) at each
	// grid point — exposed so the normalized forms (3.7)/(3.8) can be
	// plotted and reused across loads.
	NormLoad []float64 `json:"normLoad"`

	// logTau caches ln(TauAxis[i]), filled by the first lookup (see At).
	logTau atomic.Pointer[[]float64]
}

// CharacterizeSingle sweeps the τ grid for one pin/direction.
func (g *GateSim) CharacterizeSingle(pin int, dir waveform.Direction, taus []float64) (*SingleInputModel, error) {
	if len(taus) < 2 {
		return nil, fmt.Errorf("macromodel: need at least two τ points")
	}
	if !sort.Float64sAreSorted(taus) {
		return nil, fmt.Errorf("macromodel: τ grid must be sorted")
	}
	m := &SingleInputModel{Pin: pin, Dir: dir, TauAxis: append([]float64(nil), taus...)}
	// K of the driving device stack per the paper's normalization: the
	// strength of one transistor on the switching pin's opposing network
	// (n-strength for rising inputs discharging the output, p for falling).
	k := g.pinStrength(pin, dir)
	vdd := g.Th.Vdd
	cl := g.Cell.Load()
	for _, tau := range taus {
		d, tt, err := g.RunSingle(pin, dir, tau)
		if err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("macromodel: negative single-input delay %.3g at τ=%.3g (threshold policy violated?)", d, tau)
		}
		m.Delay = append(m.Delay, d)
		m.OutTT = append(m.OutTT, tt)
		m.NormLoad = append(m.NormLoad, cl/(k*vdd*tau))
	}
	return m, nil
}

// pinStrength returns the strength K = µCox/2·W/L of the transistor that the
// pin's transition turns on (the device charging or discharging the output).
func (g *GateSim) pinStrength(pin int, dir waveform.Direction) float64 {
	// For NAND/INV: rising input turns on the NMOS pull-down; falling
	// turns on the PMOS pull-up. NOR is the same pairing.
	geom := g.Cell.Geom
	if dir == waveform.Rising {
		return 0.5 * g.Cell.Proc.NMOS.KP * geom.WN / geom.L
	}
	return 0.5 * g.Cell.Proc.PMOS.KP * geom.WP / geom.L
}

// At returns Δ(1) and τ(1)_out for an input transition time τ: one search
// of the τ axis and one interpolation fraction, linear in ln(τ), shared by
// both tables, clamped at the ends. The ln of the axis nodes is taken once
// per model, so a lookup costs one logarithm; TauAxis must not change
// after the first lookup.
func (m *SingleInputModel) At(tau float64) (delay, outTT float64) {
	ax := m.TauAxis
	n := len(ax)
	if tau <= ax[0] {
		return m.Delay[0], m.OutTT[0]
	}
	if tau >= ax[n-1] {
		return m.Delay[n-1], m.OutTT[n-1]
	}
	i, exact := slices.BinarySearch(ax, tau)
	if exact {
		return m.Delay[i], m.OutTT[i]
	}
	ln := m.lnTau()
	f := (math.Log(tau) - ln[i-1]) / (ln[i] - ln[i-1])
	return m.Delay[i-1] + f*(m.Delay[i]-m.Delay[i-1]), m.OutTT[i-1] + f*(m.OutTT[i]-m.OutTT[i-1])
}

// lnTau returns ln(TauAxis[i]), computing it on first use. Concurrent first
// callers compute identical slices and either store wins, so models built
// in code or decoded from JSON need no set-up step.
func (m *SingleInputModel) lnTau() []float64 {
	if p := m.logTau.Load(); p != nil {
		return *p
	}
	ln := make([]float64, len(m.TauAxis))
	for i, t := range m.TauAxis {
		ln[i] = math.Log(t)
	}
	m.logTau.Store(&ln)
	return ln
}

// DelayAt returns Δ(1) for an input transition time τ.
func (m *SingleInputModel) DelayAt(tau float64) float64 {
	d, _ := m.At(tau)
	return d
}

// OutTTAt returns τ(1)_out for an input transition time τ.
func (m *SingleInputModel) OutTTAt(tau float64) float64 {
	_, tt := m.At(tau)
	return tt
}

// NormalizedDelay returns the paper's equation-(3.7) view of the model:
// pairs (u, Δ/τ) with u = CL/(K·Vdd·τ).
func (m *SingleInputModel) NormalizedDelay() (u, dOverTau []float64) {
	u = append([]float64(nil), m.NormLoad...)
	dOverTau = make([]float64, len(m.Delay))
	for i := range m.Delay {
		dOverTau[i] = m.Delay[i] / m.TauAxis[i]
	}
	return u, dOverTau
}

// NormalizedOutTT returns the equation-(3.8) view: pairs (u, τ_out/τ).
func (m *SingleInputModel) NormalizedOutTT() (u, ttOverTau []float64) {
	u = append([]float64(nil), m.NormLoad...)
	ttOverTau = make([]float64, len(m.OutTT))
	for i := range m.OutTT {
		ttOverTau[i] = m.OutTT[i] / m.TauAxis[i]
	}
	return u, ttOverTau
}

// DefaultTauGrid returns the characterization grid used throughout the repo:
// log-spaced input transition times covering the paper's 50 ps – 2000 ps
// experimental range with margin.
func DefaultTauGrid() []float64 { return table.LogSpace(30e-12, 3e-9, 10) }

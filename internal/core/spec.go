package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"stabl/internal/chain"
	"stabl/internal/overlay"
	"stabl/internal/scenario"
	"stabl/internal/workload"
)

// Spec is the JSON-serializable description of one experiment, the
// counterpart of DIABLO's benchmark specification files. A spec plus a
// system resolver yields a Config:
//
//	{
//	  "system": "Redbelly",
//	  "seed": 42,
//	  "durationSec": 400,
//	  "fault": {"kind": "transient", "injectSec": 133, "recoverSec": 266},
//	  "profile": {"kind": "burst", "periodSec": 60, "burstSec": 10, "factor": 2}
//	}
type Spec struct {
	System            string  `json:"system"`
	Seed              int64   `json:"seed,omitempty"`
	Validators        int     `json:"validators,omitempty"`
	Clients           int     `json:"clients,omitempty"`
	RatePerClient     float64 `json:"ratePerClient,omitempty"`
	AccountsPerClient int     `json:"accountsPerClient,omitempty"`
	DurationSec       float64 `json:"durationSec,omitempty"`
	Fanout            int     `json:"fanout,omitempty"`
	ReadRate          float64 `json:"readRate,omitempty"`
	RetryAfterSec     float64 `json:"retryAfterSec,omitempty"`
	// Flows switches the workload to aggregated flow generators: Clients
	// then counts modeled clients and may exceed Validators. See
	// Config.Flows / Config.FlowAccounts.
	Flows        int `json:"flows,omitempty"`
	FlowAccounts int `json:"flowAccounts,omitempty"`
	// CommitteeSize enables sortition committees of this size on systems
	// that support them (Algorand). See Config.CommitteeSize.
	CommitteeSize int `json:"committeeSize,omitempty"`
	// DisableConnLayer skips the O(n^2) managed connection layer; used by
	// 10k-node scale runs. See Config.DisableConnLayer.
	DisableConnLayer bool `json:"disableConnLayer,omitempty"`
	// SimWorkers runs the simulation on the parallel kernel with this many
	// partition queues; results are byte-identical to sequential. See
	// Config.SimWorkers.
	SimWorkers int `json:"simWorkers,omitempty"`
	// Overlay routes validator gossip over the kadcast broadcast overlay
	// instead of the legacy full mesh. The zero
	// value keeps the mesh. See Config.Overlay.
	Overlay overlay.Config `json:"overlay,omitempty"`
	Fault   FaultSpec      `json:"fault,omitempty"`
	// Scenario composes a multi-phase fault timeline instead of the single
	// fault plan above; mutually exclusive with a non-empty fault kind.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	Profile  *ProfileSpec   `json:"profile,omitempty"`
}

// FaultSpec is the JSON form of a FaultPlan.
type FaultSpec struct {
	Kind       string  `json:"kind,omitempty"`
	Count      int     `json:"count,omitempty"`
	InjectSec  float64 `json:"injectSec,omitempty"`
	RecoverSec float64 `json:"recoverSec,omitempty"`
	SlowBySec  float64 `json:"slowBySec,omitempty"`
}

// ProfileSpec is the JSON form of a workload rate profile.
type ProfileSpec struct {
	Kind      string  `json:"kind"` // constant|burst|ramp|sine
	PeriodSec float64 `json:"periodSec,omitempty"`
	BurstSec  float64 `json:"burstSec,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
	From      float64 `json:"from,omitempty"`
	To        float64 `json:"to,omitempty"`
	RampSec   float64 `json:"rampSec,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
}

// ParseSpec decodes a spec from JSON.
func ParseSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("core: parse spec: %w", err)
	}
	return spec, nil
}

// WriteJSON encodes the spec.
func (s Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// Config materializes the spec. resolve maps a system name to its model
// (keeping this package free of chain-model imports).
func (s Spec) Config(resolve func(string) (chain.System, error)) (Config, error) {
	sys, err := resolve(s.System)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		System:            sys,
		Seed:              s.Seed,
		Validators:        s.Validators,
		Clients:           s.Clients,
		RatePerClient:     s.RatePerClient,
		AccountsPerClient: s.AccountsPerClient,
		Duration:          secs(s.DurationSec),
		Fanout:            s.Fanout,
		ReadRate:          s.ReadRate,
		RetryAfter:        secs(s.RetryAfterSec),
		Flows:             s.Flows,
		FlowAccounts:      s.FlowAccounts,
		CommitteeSize:     s.CommitteeSize,
		DisableConnLayer:  s.DisableConnLayer,
		SimWorkers:        s.SimWorkers,
		Overlay:           s.Overlay,
	}
	cfg.Fault = FaultPlan{
		Count:     s.Fault.Count,
		InjectAt:  secs(s.Fault.InjectSec),
		RecoverAt: secs(s.Fault.RecoverSec),
		SlowBy:    secs(s.Fault.SlowBySec),
	}
	if s.Fault.Kind != "" {
		kind, err := ParseFaultKind(s.Fault.Kind)
		if err != nil {
			return Config{}, err
		}
		cfg.Fault.Kind = kind
	}
	if s.Scenario != nil {
		sc, err := s.Scenario.Build()
		if err != nil {
			return Config{}, err
		}
		cfg.Scenario = sc
	}
	if s.Profile != nil {
		profile, err := s.Profile.build()
		if err != nil {
			return Config{}, err
		}
		cfg.Profile = profile
	}
	return cfg, nil
}

// FaultKinds lists every fault kind, in declaration order.
func FaultKinds() []FaultKind {
	return []FaultKind{
		FaultNone, FaultCrash, FaultTransient, FaultPartition,
		FaultSecureClient, FaultSlow,
	}
}

// ParseFaultKind is the inverse of FaultKind.String: every kind round-trips
// through its canonical name (ParseFaultKind(k.String()) == k). It is the
// one canonical name mapping, shared by JSON specs, the CLI and campaign
// specs. Composite or time-varying perturbations (crash waves, flapping
// links, loss/jitter) have no FaultKind — express those as a scenario spec
// instead (see internal/scenario and the spec's "scenario" block).
func ParseFaultKind(name string) (FaultKind, error) {
	for _, kind := range FaultKinds() {
		if kind.String() == name {
			return kind, nil
		}
	}
	return FaultNone, fmt.Errorf("core: unknown fault kind %q (valid: %s; for composite faults use a scenario spec)",
		name, faultKindNames())
}

// faultKindNames renders every valid fault kind as a "a|b|c" list.
func faultKindNames() string {
	names := ""
	for i, kind := range FaultKinds() {
		if i > 0 {
			names += "|"
		}
		names += kind.String()
	}
	return names
}

func (p ProfileSpec) build() (workload.Profile, error) {
	switch p.Kind {
	case "", "constant":
		return workload.Constant(), nil
	case "burst":
		return workload.Burst(secs(p.PeriodSec), secs(p.BurstSec), p.Factor), nil
	case "ramp":
		return workload.Ramp(p.From, p.To, secs(p.RampSec)), nil
	case "sine":
		return workload.Sine(p.Amplitude, secs(p.PeriodSec)), nil
	default:
		return nil, fmt.Errorf("core: unknown profile kind %q", p.Kind)
	}
}

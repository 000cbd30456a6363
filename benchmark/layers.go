package benchmark

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"stabl"
	"stabl/benchmark/probes"
	"stabl/benchmark/profile"
	"stabl/benchmark/trace"
	"stabl/internal/campaign"
	"stabl/internal/core"
	"stabl/internal/overlay"
)

// layerMetrics fills Rep.Layer from the traced pass. The numbers come from
// three sources, all outside the program: counts read from the public
// results, phase spans around the public phase calls, and layer probes that
// call a layer's exported functions on an input shaped like the workload. A
// modelled share is count × probe cost over core.run_s: an estimate of what
// the layer costs inside the run, to be read next to the profile's share.
func (p *pass) layerMetrics(w Workload, seed int64, prof []byte) error {
	l := make(layerValues)
	p.rep.Layer = l
	h, c := &p.rep.Host, &p.rep.Counts
	sh := w.shape(p.sz)
	probe := probes.Set{Budget: p.sz.probeBudget, Seed: seed}

	// core: phase spans. The campaign is one RunCampaign call; its phases
	// happen inside it, out of the benchmark's sight.
	l.set("core.run_s", h.RunS)
	if !sh.campaign {
		l.set("core.build_s", h.BuildS)
		l.set("core.start_s", h.StartS)
		l.set("core.collect_s", h.CollectS)
		l.set("core.score_s", h.ScoreS)
		l.set("core.run_pre_fault_s", h.RunPreS)
		l.set("core.run_fault_s", h.RunFaultS)
		l.set("core.run_post_fault_s", h.RunPostS)
	}
	runNs := h.RunS * 1e9

	// Layers that ran inside the measured section.
	l.set("chain.commits", float64(c.Commits))
	l.set("client.submitted", float64(c.Submitted))
	queueNs := probe.QueueNsPerEvent(sh.depth)
	unicastNs := probe.UnicastNsPerMsg(sh.depth)
	l.set("sim.queue_ns_per_event", queueNs)
	l.set("simnet.unicast_ns_per_msg", unicastNs)
	l.set("chain.mempool_ns_per_tx", probe.MempoolNsPerTx())
	l.set("chain.ledger_append_ns_per_tx", probe.LedgerAppendNsPerTx())

	if !sh.campaign {
		// The campaign's public result carries no event or message
		// counts; every phase-driven workload reads them from RunResult.
		l.set("core.events_per_s", float64(c.Events)/h.RunS)
		l.set("core.us_per_event", h.RunS*1e6/float64(c.Events))
		l.set("sim.events", float64(c.Events))
		l.set("sim.events_per_commit", float64(c.Events)/float64(c.Commits))
		l.set("simnet.sent", float64(c.Sent))
		l.set("simnet.sends_per_commit", float64(c.Sent)/float64(c.Commits))
		l.set("simnet.delivered", float64(c.Delivered))
		l.set("simnet.dropped", float64(c.Dropped))
		l.set("simnet.delivered_ratio", float64(c.Delivered)/float64(c.Sent))
		l.set("chain.max_height", float64(c.MaxHeight))
		l.set("client.pending", float64(c.Pending))
		for name, cost := range h.Systems {
			prefix := strings.ToLower(name)
			l.set(prefix+".run_s", cost.RunS)
			l.set(prefix+".us_per_event", cost.RunS*1e6/float64(cost.Events))
		}

		// Modelled shares. A message's probe cost includes the one
		// scheduler event that delivers it, taken at the same standing
		// depth as the queue probe; the queue share already counts it, so
		// the simnet share is net of it. Mesh workloads send almost only
		// broadcasts; the others send unicast.
		msgNs := unicastNs
		if sh.overlay == "" {
			msgNs = probe.BroadcastNsPerDest(sh.validators, sh.depth)
			l.set("simnet.broadcast_ns_per_dest", msgNs)
		}
		queueShare := float64(c.Events) * queueNs / runNs
		netShare := float64(c.Sent) * max(0, msgNs-queueNs) / runNs
		overlayShare := 0.0
		l.set("sim.queue_model_share", queueShare)
		l.set("simnet.model_share", netShare)

		if sh.overlay != "" {
			ov := c.Overlay
			envelopes := float64(ov.OriginSends + ov.Relayed)
			l.set("overlay.origins", float64(ov.Origins))
			l.set("overlay.relayed", float64(ov.Relayed))
			l.set("overlay.duplicates", float64(ov.Duplicates))
			l.set("overlay.dup_ratio", float64(ov.Duplicates)/envelopes)
			l.set("overlay.sends_per_origin", ov.SendsPerBroadcast())
			l.set("overlay.deliveries_per_node_per_broadcast",
				envelopes/float64(ov.Origins)/float64(sh.validators))
			cfg := overlay.Config{Topology: sh.overlay}.WithDefaults()
			buildMs, err := probe.TopologyBuildMs(cfg, sh.validators)
			if err != nil {
				return err
			}
			routeNs, err := probe.RouteNsPerMsg(cfg, sh.validators)
			if err != nil {
				return err
			}
			l.set("overlay.topology_build_ms", buildMs)
			l.set("overlay.route_ns_per_msg", routeNs)
			overlayShare = envelopes * routeNs / runNs
			l.set("overlay.model_share", overlayShare)
		}
		// What the models leave for the Deliver handlers and the clients.
		l.set("chain.residual_share", 1-queueShare-netShare-overlayShare-h.GCCPUFrac)
	}

	if sh.committee > 0 {
		l.set("committee.extract_us", probe.ExtractUs(sh.validators, sh.committee))
		l.set("committee.schedule_hit_ns", probe.ScheduleHitNs(sh.validators, sh.committee))
	}
	if c.ParWindows > 0 {
		l.set("sim.par_windows", float64(c.ParWindows))
		l.set("sim.par_busy_over_critical", h.ParBusyS/h.ParCriticalS)
	}
	if p.lastPair[0] != nil {
		l.set("stats.sensitivity_ms", 1e3*medianSeconds(5, func() {
			stabl.Sensitivity(p.lastPair[0], p.lastPair[1])
		}))
	}

	if sh.campaign {
		l.set("campaign.cells", float64(c.Cells))
		l.set("campaign.fork_served", float64(c.ForkServed))
		l.set("campaign.full_replays", float64(c.FullReplays))
		cells := append([]float64(nil), h.CellMs...)
		sort.Float64s(cells)
		l.set("campaign.cell_ms_p50", median(cells))
		l.set("campaign.cell_ms_max", cells[len(cells)-1])
		l.set("campaign.parse_expand_ms", h.BuildS*1e3)
		l.set("simnet.degraded_ns_per_msg", probe.DegradedNsPerMsg(sh.depth))
		l.set("metrics.record_ns_per_op", probe.RecordNsPerOp())
		spec, _, err := campaignSpec(seed, p.sz)
		if err != nil {
			return err
		}
		if len(spec.Scenarios) > 0 {
			us, err := probe.CompileUs(spec.Scenarios, spec.Base.Validators, spec.Base.Clients)
			if err != nil {
				return err
			}
			l.set("scenario.compile_us", us)
		}
		if err := p.forkProbe(spec, seed); err != nil {
			return err
		}
	}

	samples, err := profile.Parse(prof)
	if err != nil {
		return err
	}
	for layer, share := range profile.Shares(samples) {
		l.set("prof."+layer+"_share", share)
	}

	spans := p.rec.Spans()
	l.set("trace.spans", float64(len(spans)))
	p.rep.SelfS = make(map[string]float64)
	for name, self := range trace.SelfByName(spans) {
		p.rep.SelfS[name] = self.Seconds()
	}
	return nil
}

// forkProbe times Experiment.Fork and ForkPoint.Rewind on the campaign's
// deployment, checkpointed where the campaign checkpoints it: one
// nanosecond before the fault at 200 s.
func (p *pass) forkProbe(spec campaign.Spec, seed int64) error {
	sys, err := stabl.SystemByName(spec.Systems[0])
	if err != nil {
		return err
	}
	inject := time.Duration(spec.InjectSecs[0] * float64(time.Second))
	exp, err := core.Build(core.Config{
		System:   sys,
		Seed:     seed,
		Duration: time.Duration(spec.Base.DurationSec * float64(time.Second)),
		Fault: core.FaultPlan{
			Kind:      core.FaultTransient,
			InjectAt:  inject,
			RecoverAt: inject + time.Duration(spec.OutageSecs[0]*float64(time.Second)),
		},
	})
	if err != nil {
		return err
	}
	fp, err := core.RunToCheckpoint(exp)
	if err != nil {
		return err
	}
	if fp == nil {
		return fmt.Errorf("benchmark: %s does not fork, snapshot probes cannot run", sys.Name())
	}
	l := p.rep.Layer
	l.set("snapshot.fork_ms", 1e3*medianSeconds(5, func() {
		if _, err := exp.Fork(); err != nil {
			panic(err) // the same experiment forked in RunToCheckpoint
		}
	}))
	l.set("snapshot.rewind_ms", 1e3*medianSeconds(5, fp.Rewind))
	return nil
}

// medianSeconds times fn n times and returns the median duration.
func medianSeconds(n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		start := trace.Now()
		fn()
		d[i] = (trace.Now() - start).Seconds()
	}
	sort.Float64s(d)
	return median(d)
}

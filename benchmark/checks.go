package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"meshcast/internal/experiments"
	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/trace"
)

// checkScenario tests one run's outputs against properties every correct run
// has, with the expected figures computed from the config rather than taken
// from the simulator.
func checkScenario(cfg experiments.ScenarioConfig, res *experiments.RunResult) error {
	s := res.Summary
	flows, pairs, maxMembers := 0, 0, 0
	for _, g := range cfg.Groups {
		flows += len(g.Sources)
		pairs += len(g.Sources) * len(g.Members)
		maxMembers = max(maxMembers, len(g.Members))
	}
	// Each CBR flow sends one packet per interval (stretched by at most a
	// tenth of jitter) over the traffic window.
	perFlow := float64(cfg.Duration-cfg.TrafficStart) / float64(cfg.SendInterval)
	if sent := float64(s.PacketsSent); sent < 0.8*float64(flows)*perFlow || sent > float64(flows)*(perFlow+1) {
		return fmt.Errorf("%d packets sent by %d flows, want about %.0f each", s.PacketsSent, flows, perFlow)
	}
	if s.PacketsDelivered > s.PacketsSent*uint64(maxMembers) {
		return fmt.Errorf("delivered %d > sent %d × %d members", s.PacketsDelivered, s.PacketsSent, maxMembers)
	}
	if s.DataBytesReceived != s.PacketsDelivered*uint64(cfg.PayloadBytes) {
		return fmt.Errorf("%d payload bytes received for %d deliveries of %d B", s.DataBytesReceived, s.PacketsDelivered, cfg.PayloadBytes)
	}
	if len(res.PerMember) != pairs {
		return fmt.Errorf("%d per-member results for %d (flow, member) pairs", len(res.PerMember), pairs)
	}
	var sum float64
	for _, m := range res.PerMember {
		if m.PDR < 0 || m.PDR > 1 {
			return fmt.Errorf("member %d received %.3f× what source %d sent to group %d", m.Member, m.PDR, m.Source, m.Group)
		}
		sum += m.PDR
	}
	if pairs > 0 && math.Abs(sum/float64(pairs)-s.PDR) > 1e-9 {
		return fmt.Errorf("PDR %v is not the mean %v of the per-member ratios", s.PDR, sum/float64(pairs))
	}
	d := res.Delay
	if uint64(d.Count) != s.PacketsDelivered || d.P50 > d.P90 || d.P90 > d.P99 || d.P99 > d.Max {
		return fmt.Errorf("delay summary %+v inconsistent with %d deliveries", d, s.PacketsDelivered)
	}
	if res.Events == 0 {
		return fmt.Errorf("no events processed")
	}
	if cfg.Mobility != nil && (res.Mobility == nil || res.Mobility.Moves == 0) {
		return fmt.Errorf("mobile scenario moved no radio")
	}
	return nil
}

// fingerprint hashes every simulated output of a run, so two runs can be
// compared for exact equality.
func fingerprint(res *experiments.RunResult) string {
	flat := *res
	flat.Mobility = nil
	text := fmt.Sprintf("%+v", flat) // fmt prints maps in sorted key order
	if res.Mobility != nil {
		text += fmt.Sprintf("|%+v", *res.Mobility)
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// figure2Row is one metric's line of the sweep: what the paper's Figure 2
// plots, recomputed from the per-scenario results.
type figure2Row struct {
	Metric        metric.Kind
	Delivered     uint64
	MeanPDR       float64
	RelThroughput float64 // mean over topologies of PDR / MinHop PDR
}

// figure2Rows folds a paper-fig2 batch (laid out by paperScenario) into one
// row per metric.
func figure2Rows(cfgs []experiments.ScenarioConfig, outs []outcome) ([]figure2Row, error) {
	kinds := append([]metric.Kind{metric.MinHop}, metric.LinkQuality()...)
	topos := len(cfgs) / len(kinds)
	rows := make([]figure2Row, len(kinds))
	for k := range kinds {
		rows[k].Metric = kinds[k]
		for t := 0; t < topos; t++ {
			o, base := outs[k*topos+t], outs[t]
			if o.res == nil || base.res == nil {
				return nil, fmt.Errorf("%v topology %d has no result", kinds[k], t)
			}
			if cfgs[k*topos+t].Metric != kinds[k] {
				return nil, fmt.Errorf("scenario %d runs %v, want %v", k*topos+t, cfgs[k*topos+t].Metric, kinds[k])
			}
			rows[k].Delivered += o.res.Summary.PacketsDelivered
			rows[k].MeanPDR += o.res.Summary.PDR / float64(topos)
			if base.res.Summary.PDR > 0 {
				rows[k].RelThroughput += o.res.Summary.PDR / base.res.Summary.PDR / float64(topos)
			}
		}
	}
	return rows, nil
}

// checkFigure2 checks the direction of the paper's Figure 2: every
// link-quality metric delivers more than MinHop over the same topologies.
func checkFigure2(_ uint64, _ sizing, cfgs []experiments.ScenarioConfig, outs []outcome) error {
	rows, err := figure2Rows(cfgs, outs)
	if err != nil {
		return err
	}
	for _, r := range rows[1:] {
		if r.Delivered <= rows[0].Delivered {
			return fmt.Errorf("%v delivered %d packets, MinHop %d: Figure 2 says it should deliver more",
				r.Metric, r.Delivered, rows[0].Delivered)
		}
	}
	return nil
}

// checkMoveConsistency moves radios of the workload's city in batches and
// checks, after each batch, that sampled transmitters' cached candidate lists
// equal a brute-force rebuild (phy.Medium.LinksConsistent).
func checkMoveConsistency(seed uint64, _ sizing, cfgs []experiments.ScenarioConfig, _ []outcome) error {
	topo := cfgs[0].Topology
	engine := sim.NewEngine(seed)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, phy.DefaultParams())
	radios := make([]*phy.Radio, topo.NodeCount())
	for i, pos := range topo.Positions {
		radios[i] = medium.AttachRadio(packet.NodeID(i), pos)
	}
	rng := sim.NewRNG(seed)
	sample := rng.Perm(len(radios))[:min(32, len(radios))]
	for batch := 0; batch < 8; batch++ {
		for _, i := range sample { // warm the lists the moves must invalidate
			radios[i].Transmit(dataFrame(radios[i].ID))
			engine.RunAll()
		}
		for m := 0; m < 50; m++ {
			r := radios[rng.Intn(len(radios))]
			step := geom.Point{X: r.Pos.X + (rng.Float64()-0.5)*2000, Y: r.Pos.Y + (rng.Float64()-0.5)*2000}
			medium.MoveRadio(r, topo.Area.Clamp(step))
		}
		for _, i := range sample {
			if !medium.LinksConsistent(radios[i]) {
				return fmt.Errorf("radio %d's cached links differ from a rebuild after move batch %d", i, batch)
			}
		}
	}
	return nil
}

// checkObservation checks an observed run's artifacts against the run: the
// reconstructed journeys explain exactly the deliveries the run counted, and
// the manifest alone reproduces the probing overhead the run derived.
func checkObservation(res *experiments.RunResult, journeys []*trace.Journey, obs *observation) error {
	var delivered uint64
	var data, complete int
	for _, j := range journeys {
		if j.PktKind != packet.TypeData {
			continue
		}
		data++
		delivered += uint64(len(j.Deliveries))
		if j.Complete() {
			complete++
		}
	}
	if delivered != res.Summary.PacketsDelivered {
		return fmt.Errorf("journeys explain %d deliveries, run counted %d", delivered, res.Summary.PacketsDelivered)
	}
	if complete != data {
		return fmt.Errorf("%d of %d data journeys have complete forwarding trees", complete, data)
	}
	m := obs.manifest
	dataBytes := float64(m.Counters["stats.data_bytes_received"])
	if dataBytes == 0 {
		return fmt.Errorf("manifest records no data received")
	}
	probe := float64(m.Counters["linkquality.probe_bytes_sent"]) - m.Gauges["linkquality.probe_bytes_warmup"]
	got, want := 100*probe/dataBytes, m.Derived["probe_overhead_pct"]
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("probe overhead from manifest counters %v, derived %v", got, want)
	}
	if obs.samples != m.Samples {
		return fmt.Errorf("series holds %d samples, manifest says %d", obs.samples, m.Samples)
	}
	return nil
}

// dataFrame is a 512 B broadcast data frame from src.
func dataFrame(src packet.NodeID) *packet.Frame {
	return &packet.Frame{
		Kind:    packet.FrameData,
		Src:     src,
		Dst:     packet.Broadcast,
		Payload: &packet.Packet{Kind: packet.TypeData, Src: src, PayloadBytes: 512},
	}
}

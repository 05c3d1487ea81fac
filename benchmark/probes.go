package main

import (
	"io"
	"math"
	"runtime"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/node"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
	"meshcast/internal/topology"
	"meshcast/internal/trace"
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

// probeLayers times direct calls into each layer on the workload's first
// scenario: its topology, its frames, its fan-out depth, its metrics. Each
// probe starts after a GC and is a span under parent.
func probeLayers(w *workload, seed uint64, sz sizing, cfg experiments.ScenarioConfig, traced []tracedOutcome, values map[string]float64, spans *spanRecorder, parent int) error {
	probe := func(name string, fn func() error) error {
		runtime.GC()
		id := spans.begin(name, parent)
		defer spans.end(id)
		return fn()
	}
	var means []float64
	var inner propagation.Fading = propagation.Rayleigh{}
	var obs *observation
	for _, t := range traced {
		if t.res != nil {
			means, inner, obs = t.fading.means, t.fading.inner, t.obs
			break
		}
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sim", func() error {
			depth := max(2, int(math.Round(2*values["phy.fanout"])))
			values["sim.hold_ns"] = holdNs(depth, 1<<20)
			return nil
		}},
		{"phy", func() error {
			values["phy.transmit_ns"], values["phy.list_build_ns"], values["phy.move_ns"] = phyProbes(cfg.Topology)
			return nil
		}},
		{"propagation", func() error {
			values["propagation.fading_ns"] = fadingNs(inner, means)
			return nil
		}},
		{"metric", func() error {
			values["metric.path_cost_ns"] = pathCostNs(w, seed, sz, cfg)
			return nil
		}},
		{"topology", func() error {
			var times []float64
			for rep := 0; rep < 5; rep++ {
				start := time.Now()
				if _, err := w.scenario(seed, sz, 0); err != nil {
					return err
				}
				times = append(times, time.Since(start).Seconds())
			}
			values["topology.gen_s"] = median(times)
			return nil
		}},
		{"node", func() error {
			var err error
			values["node.build_s"], values["node.heap_bytes_per_node"], err = nodeBuild(cfg)
			return err
		}},
		{"telemetry", func() error {
			values["telemetry.sample_ns"] = sampleNs(obs)
			return nil
		}},
		{"trace", func() error {
			values["trace.span_ns"] = spanNs(obs != nil)
			if obs == nil {
				// Tracing is off: the journey reconstruction has no spans.
				start := time.Now()
				sink += float64(len(trace.Reconstruct(nil)))
				values["trace.reconstruct_s"] = time.Since(start).Seconds()
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := probe(s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// holdNs is the cost of one schedule plus dispatch through sim.Engine with
// depth events pending: every dispatched event schedules its successor, the
// classic hold model of an event queue.
func holdNs(depth, events int) float64 {
	engine := sim.NewEngine(1)
	rng := sim.NewRNG(2)
	left := events
	delay := func() time.Duration { return time.Duration(1+rng.Intn(1000)) * time.Microsecond }
	var fire func(any)
	fire = func(any) {
		if left > 0 {
			left--
			engine.ScheduleArgPooled(delay(), fire, nil)
		}
	}
	for i := 0; i < depth; i++ {
		engine.ScheduleArgPooled(delay(), fire, nil)
	}
	start := time.Now()
	engine.RunAll()
	return float64(time.Since(start).Nanoseconds()) / float64(events+depth)
}

// phyProbes attaches the topology's radios to a fresh medium and times, for
// a rotation of up to 64 transmitters: a drained broadcast with warm
// candidate lists, the extra cost of the same broadcast right after every
// list was dropped (the cold list build), and MoveRadio by a few metres with
// its cache invalidation.
func phyProbes(topo *topology.Topology) (transmitNs, listBuildNs, moveNs float64) {
	engine := sim.NewEngine(7)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, phy.DefaultParams())
	radios := make([]*phy.Radio, topo.NodeCount())
	for i, pos := range topo.Positions {
		radios[i] = medium.AttachRadio(packet.NodeID(i), pos)
	}
	rot := radios[:min(64, len(radios))]
	frames := make([]*packet.Frame, len(rot))
	for i, r := range rot {
		frames[i] = dataFrame(r.ID)
	}
	send := func() float64 {
		start := time.Now()
		for i, r := range rot {
			r.Transmit(frames[i])
			engine.RunAll()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(rot))
	}
	// Each cold pass is paired with the warm pass right after it, so slow
	// drift of the host cancels out of the difference.
	var build, warm []float64
	for rep := 0; rep < 15; rep++ {
		medium.SetLinkCache(true) // drops every cached list
		cold := send()
		warm = append(warm, send())
		build = append(build, cold-warm[rep])
	}
	transmitNs = median(warm)
	listBuildNs = median(build)

	const moves = 4096
	start := time.Now()
	for i := 0; i < moves; i++ {
		r := radios[i%len(radios)]
		step := float64(5 + i%11)
		if i/len(radios)%2 == 1 {
			step = -step
		}
		medium.MoveRadio(r, topo.Area.Clamp(geom.Point{X: r.Pos.X + step, Y: r.Pos.Y + step}))
	}
	moveNs = float64(time.Since(start).Nanoseconds()) / moves
	return transmitNs, listBuildNs, moveNs
}

// fadingNs times the scenario's fading model on the mean powers its
// receivers actually saw.
func fadingNs(f propagation.Fading, means []float64) float64 {
	if len(means) == 0 {
		means = []float64{1e-9}
	}
	rng := sim.NewRNG(3)
	const calls = 1 << 21
	start := time.Now()
	for i := 0; i < calls; i++ {
		sink += f.Apply(means[i%len(means)], rng)
	}
	return float64(time.Since(start).Nanoseconds()) / calls
}

// pathCostNs times path-cost evaluation under the batch's routing metrics,
// over min-hop paths of the scenario's topology (up to 8 hops from each
// source), with link estimates from the medium's delivery probability.
func pathCostNs(w *workload, seed uint64, sz sizing, cfg experiments.ScenarioConfig) float64 {
	kinds := map[metric.Kind]bool{}
	for i := 0; i < w.size(sz); i++ {
		if c, err := w.scenario(seed, sz, i); err == nil {
			kinds[c.Metric] = true
		}
	}
	medium := phy.NewMedium(sim.NewEngine(1), propagation.NewTwoRay(), propagation.Rayleigh{}, phy.DefaultParams())
	adj := cfg.Topology.Neighbors(250)
	pos := cfg.Topology.Positions
	var paths [][]metric.LinkEstimate
	for _, g := range cfg.Groups {
		for _, src := range g.Sources {
			parent := map[int]int{src: -1}
			queue := []int{src}
			for depth := 0; depth < 8 && len(paths) < 400; depth++ {
				var next []int
				for _, u := range queue {
					for _, v := range adj[u] {
						if _, seen := parent[v]; !seen {
							parent[v] = u
							next = append(next, v)
							paths = append(paths, pathTo(v, parent, pos, medium))
						}
					}
				}
				queue = next
			}
		}
	}
	if len(paths) == 0 {
		return 0
	}
	var metrics []metric.PathMetric
	for k := range kinds {
		metrics = append(metrics, metric.MustNew(k))
	}
	calls := 0
	start := time.Now()
	for calls < 1<<18 {
		for _, m := range metrics {
			for _, p := range paths {
				sink += metric.PathCostFromEstimates(m, p)
				calls++
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// pathTo walks parent links back from v and returns the path's link
// estimates in source-to-v order.
func pathTo(v int, parent map[int]int, pos []geom.Point, medium *phy.Medium) []metric.LinkEstimate {
	var links []metric.LinkEstimate
	for u := v; parent[u] >= 0; u = parent[u] {
		df := medium.DeliveryProbability(pos[parent[u]], pos[u])
		links = append(links, metric.LinkEstimate{
			DeliveryProb:     df,
			PairDelaySeconds: 0.004 / math.Max(df, 0.01),
			BandwidthBps:     2e6 * df,
			PacketBytes:      512,
		})
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return links
}

// nodeBuild times building every node of the scenario (radio attach, MAC,
// prober, neighbour table, protocol) on a fresh medium, and the live heap
// each node holds afterwards.
func nodeBuild(cfg experiments.ScenarioConfig) (seconds, bytesPerNode float64, err error) {
	proto, err := multicast.Resolve(cfg.Protocol)
	if err != nil {
		return 0, 0, err
	}
	ncfg := node.DefaultConfig(cfg.Metric)
	ncfg.Protocol = proto
	n := cfg.Topology.NodeCount()
	var times, bytes []float64
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		engine := sim.NewEngine(cfg.Seed)
		medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, phy.DefaultParams())
		nodes := make([]*node.Node, n)
		for i, pos := range cfg.Topology.Positions {
			if nodes[i], err = node.New(engine, medium, packet.NodeID(i), pos, ncfg); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
		runtime.GC()
		runtime.ReadMemStats(&after)
		bytes = append(bytes, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(n))
		runtime.KeepAlive(nodes)
	}
	return median(times), median(bytes), nil
}

// sampleNs is the cost of one telemetry snapshot of a registry holding the
// observed run's instruments. Where the workload runs without telemetry it
// is the cost of an instrument update on the disabled (nil) registry, the
// cost every hot path pays.
func sampleNs(obs *observation) float64 {
	if obs == nil {
		c := (*telemetry.Registry)(nil).Counter("disabled")
		const calls = 1 << 22
		start := time.Now()
		for i := 0; i < calls; i++ {
			c.Add(1)
		}
		return float64(time.Since(start).Nanoseconds()) / calls
	}
	reg := telemetry.NewRegistry()
	for name, v := range obs.manifest.Counters {
		reg.Counter(name).Add(v)
	}
	for name, v := range obs.manifest.Gauges {
		reg.Gauge(name).Set(v)
	}
	s := telemetry.NewSampler(reg, time.Second)
	const samples = 4096
	start := time.Now()
	for i := 0; i < samples; i++ {
		s.Sample(time.Duration(i) * time.Second)
	}
	return float64(time.Since(start).Nanoseconds()) / samples
}

// spanNs is the cost of one journey span: written as JSON lines (to a
// discarding writer) when tracing is on, or the disabled (nil) tracer's
// no-op otherwise.
func spanNs(enabled bool) float64 {
	var tr *trace.Tracer
	if enabled {
		tr = trace.New(nil, func() time.Duration { return time.Second })
		tr.SetSpanSink(trace.NewSpanJSONLWriter(io.Discard))
	}
	p := &packet.Packet{Kind: packet.TypeData, TraceID: 1<<40 | 1, PayloadBytes: 512}
	calls := 1 << 22
	if enabled {
		calls = 1 << 18
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		tr.Span(trace.SpanOriginate, 1, 1, p)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

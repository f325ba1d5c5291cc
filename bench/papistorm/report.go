package main

import (
	"fmt"
	"slices"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Generator limits: a run whose own load generator misbehaved measures
// the generator, not papid, and is reported INVALID instead. Like every
// reported value, the limits apply to the median over the run's rounds,
// so one round that closed in the middle of a host stall does not void
// the other two. The
// lateness limit is on the upper quartile, not the p99: on the virtual
// machines this runs on, about one timer wake-up in a hundred arrives
// 2 to 4 ms late whatever the load, so a p99 limit below that rejects
// every run, while the medians reported here do not feel a late 1%.
// The p90, p95 and p99 are reported beside it.
const (
	maxGenLateP75US = 500
	maxBacklogShare = 0.01
	maxClientCPU    = 500 // ms/s
)

func statDelta(st []wire.Response, keys ...string) float64 {
	var d uint64
	for _, k := range keys {
		d += st[1].Stats[k] - st[0].Stats[k]
	}
	return float64(d)
}

// histMeanUS is the mean of a server histogram over the window, from
// the count and sum deltas of two STATS replies. STATS quantiles cover
// the process lifetime and cannot be windowed; the mean can.
func histMeanUS(st []wire.Response, key string) float64 {
	a, b := st[0].Hists[key], st[1].Hists[key]
	if b.Count == a.Count {
		return 0
	}
	return telemetry.Summary{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}.Mean() / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// The host gauge. On the virtual machines this runs on, the same work
// takes 10 to 40% longer in some minutes than in others, papid's and
// the harness's alike (bench/README.md, sizing facts), which no window
// the time cap allows averages out. But the harness's own work per
// second is fixed by the workload: so many requests encoded and
// written, so many frames read, decoded and checked. The CPU time it
// takes for that, spinning excluded, is therefore a reading of how slow
// the host is in that very second, and it moves in step with papid's
// times. Each slice of the window gets a speed factor, the workload's
// gaugeRef (the gauge of a quiet reference host) over the slice's
// gauge, and every time-based end-to-end value measured in the slice is
// multiplied by it: the metrics read as on the reference host. The
// per-layer client.* and server.* numbers stay as measured, and
// client.host_gauge_ms_per_s and client.host_speed say what was applied.
// Set-up has no gauge of its own (the harness busy-waits for replies in
// it), so setup_s borrows the median factor of the window that follows
// it within seconds: the host's speed drifts over minutes.

// hostSpeed returns, for each slice between two edges, the host gauge
// in ms/s and the speed factor gaugeRef/gauge.
func hostSpeed(edges []edge, gaugeRef float64) (gauge, speed []float64) {
	gauge = make([]float64, len(edges)-1)
	speed = make([]float64, len(edges)-1)
	for i := range gauge {
		a, b := edges[i], edges[i+1]
		gauge[i] = (b.selfCPU - a.selfCPU - (b.spun - a.spun)) / b.at.Sub(a.at).Seconds()
		speed[i] = gaugeRef / gauge[i]
	}
	return gauge, speed
}

// report turns what the round recorded into metrics.
func (r *runner) report(res *result, setup float64, edges []edge, late []int64, rss float64, chk *checked) {
	var all, tick, pub, bin, json, events, delta, ack []sample
	var query [3][]sample
	var stats []wire.Response
	for i := range r.rec.conns {
		cr := &r.rec.conns[i]
		cr.mu.Lock()
		var mine []sample
		for _, lr := range cr.live {
			ts := chk.tickTS[lr.sess][lr.seq-1] * 1e3
			mine = append(mine, sample{lr.recv, lr.recv - ts})
		}
		tick = append(tick, mine...)
		for j, ss := range cr.pubLag {
			mine = append(mine, ss...)
			pub = append(pub, ss...)
			switch sub := r.sp.subs[j]; {
			case sub.delta:
				delta = append(delta, ss...)
			case len(sub.events) > 0:
				events = append(events, ss...)
			}
		}
		if r.sp.codec[i] == wire.CodecBinary {
			bin = append(bin, mine...)
		} else {
			json = append(json, mine...)
		}
		all = append(all, mine...)
		ack = append(ack, cr.ack...)
		for k := range query {
			query[k] = append(query[k], cr.query[k]...)
		}
		stats = append(stats, cr.stats...)
		cr.mu.Unlock()
	}
	slices.Sort(late)
	nSlices := int(r.window / sliceLen)
	if len(stats) != 2 || len(edges) != nSlices+1 {
		res.Invalid = fmt.Sprintf("%d STATS replies and %d CPU samples at the slice edges, want 2 and %d",
			len(stats), len(edges), nSlices+1)
		return
	}
	last := edges[nSlices]
	secs := last.at.Sub(edges[0].at).Seconds()
	papidCPU := last.papidCPU - edges[0].papidCPU
	frames := statDelta(stats, "frames_sent_json", "frames_sent_binary")
	bytes := statDelta(stats, "bytes_sent_json", "bytes_sent_binary")
	// bytes_per_frame covers the codecs that carried a subscription. A
	// connection that only queries (durable_mix's JSON one) is left out:
	// its replies are large, and their size follows wall-clock second
	// boundaries in the history, not the code.
	var subFrames, subBytes float64
	for codec := range wire.CodecBinary + 1 {
		if slices.ContainsFunc(r.sp.subs, func(sub subSpec) bool { return r.sp.codec[sub.conn] == codec }) {
			subFrames += statDelta(stats, "frames_sent_"+codec.String())
			subBytes += statDelta(stats, "bytes_sent_"+codec.String())
		}
	}

	gauge, speed := hostSpeed(edges, r.sp.gaugeRef)
	cpu := make([]float64, nSlices) // papid's, at reference speed
	for i := range cpu {
		cpu[i] = (edges[i+1].papidCPU - edges[i].papidCPU) / edges[i+1].at.Sub(edges[i].at).Seconds() * speed[i]
	}
	// atRef is the samples' latencies in µs at reference speed.
	atRef := func(ss []sample) []float64 {
		out := make([]float64, 0, len(ss))
		for _, s := range ss {
			if i := int((s.at - r.rec.t0) / int64(sliceLen)); i >= 0 && i < nSlices {
				out = append(out, float64(s.ns)/1e3*speed[i])
			}
		}
		return out
	}
	res.pool = map[string][]float64{
		"delivery_lag_p50_us": atRef(all),
		"publish_ack_p50_us":  atRef(ack),
		"query_range_p50_us":  atRef(query[0]),
		"papid_cpu_ms_per_s":  cpu,
	}

	e := res.Metrics
	e["setup_s"] = metric{Value: setup * median(speed), Unit: "s"}
	e["delivery_lag_p50_us"] = metric{Value: median(res.pool["delivery_lag_p50_us"]), Unit: "us"}
	e["publish_ack_p50_us"] = metric{Value: median(res.pool["publish_ack_p50_us"]), Unit: "us"}
	e["query_range_p50_us"] = metric{Value: median(res.pool["query_range_p50_us"]), Unit: "us"}
	e["bytes_per_frame"] = metric{Value: ratio(subBytes, subFrames), Unit: "B"}
	e["papid_cpu_ms_per_s"] = metric{Value: median(cpu), Unit: "ms/s"}
	e["papid_rss_mb"] = metric{Value: rss, Unit: "MiB"}

	l := res.Layers
	count := func(name string, v float64) { l[name] = metric{Value: v, Unit: "count"} }
	us := func(name string, v float64) { l[name] = metric{Value: v, Unit: "us"} }
	end := stats[1].Stats
	us("server.tick_mean_us", histMeanUS(stats, "tick"))
	us("server.tick_p99_us", float64(stats[1].Hists["tick"].P99)/1e3)
	us("server.op_publish_mean_us", histMeanUS(stats, "op/PUBLISH/"+r.sp.codec[0].String()))
	us("server.op_query_mean_us", histMeanUS(stats, "op/QUERY/"+r.sp.codec[1].String()))
	count("server.frames_sent", frames)
	l["server.bytes_sent"] = metric{Value: bytes, Unit: "B"}
	for _, k := range []string{"snapshots_dropped", "write_drops", "deltas_dropped", "derived_dropped",
		"encode_failures", "evictions", "tick_stalls"} {
		count("server."+k, statDelta(stats, k))
	}
	keys := statDelta(stats, "keyframes_sent")
	l["server.keyframe_share"] = metric{Value: ratio(keys, keys+statDelta(stats, "deltas_sent")), Unit: "ratio"}
	l["server.alloc_cache_hit_ratio"] = metric{Unit: "ratio",
		Value: ratio(float64(end["cache_hits"]), float64(end["cache_hits"]+end["cache_misses"]))}
	us("server.cpu_us_per_frame", ratio(papidCPU*1e3, frames))
	l["tsdb.bytes_per_sample"] = metric{Value: ratio(float64(end["tsdb_bytes"]), float64(end["tsdb_samples"])), Unit: "B"}
	count("wal.fsyncs", statDelta(stats, "wal_fsyncs"))
	l["wal.bytes_per_row"] = metric{Value: ratio(float64(end["wal_disk_bytes"]), float64(end["wal_rows"])), Unit: "B"}
	l["wal.recovery_ms"] = metric{Unit: "ms"}
	count("wal.replayed_rows", 0)

	us("client.delivery_lag_p90_us", usAt(latencies(all), 0.9))
	us("client.delivery_lag_p99_us", usAt(latencies(all), 0.99))
	us("client.tick_lag_p50_us", usAt(latencies(tick), 0.5))
	us("client.tick_lag_p99_us", usAt(latencies(tick), 0.99))
	us("client.publish_lag_p50_us", usAt(latencies(pub), 0.5))
	us("client.publish_lag_p99_us", usAt(latencies(pub), 0.99))
	us("client.lag_binary_p50_us", usAt(latencies(bin), 0.5))
	us("client.lag_json_p50_us", usAt(latencies(json), 0.5))
	us("client.lag_events_p50_us", usAt(latencies(events), 0.5))
	us("client.lag_delta_p50_us", usAt(latencies(delta), 0.5))
	us("client.publish_ack_p99_us", usAt(latencies(ack), 0.99))
	us("client.query_range_p90_us", usAt(latencies(query[0]), 0.9))
	us("client.query_range_p99_us", usAt(latencies(query[0]), 0.99))
	us("client.query_raw_p50_us", usAt(latencies(query[1]), 0.5))
	us("client.query_derive_p50_us", usAt(latencies(query[2]), 0.5))
	us("client.gen_late_p75_us", float64(percentile(late, 0.75))/1e3)
	us("client.gen_late_p90_us", float64(percentile(late, 0.90))/1e3)
	us("client.gen_late_p95_us", float64(percentile(late, 0.95))/1e3)
	us("client.gen_late_p99_us", float64(percentile(late, 0.99))/1e3)
	count("client.backlog_end", float64(last.backlog))
	l["client.cpu_ms_per_s"] = metric{Value: (last.selfCPU - edges[0].selfCPU) / secs, Unit: "ms/s"}
	l["client.host_gauge_ms_per_s"] = metric{Value: median(gauge), Unit: "ms/s"}
	l["client.host_speed"] = metric{Value: median(speed), Unit: "ratio"}
	l["client.delivered_ratio"] = metric{Value: ratio(float64(chk.got), float64(chk.owed)), Unit: "ratio"}
	count("client.samples_lag", float64(len(all)))
	count("client.samples_query_range", float64(len(query[0])))
}

// generatorVerdict applies the generator limits to a run's combined
// per-layer metrics; requests is how many one round scheduled. It
// returns why the run does not count, or "".
func generatorVerdict(l map[string]metric, requests int) string {
	late, backlog, cpu := l["client.gen_late_p75_us"].Value, l["client.backlog_end"].Value, l["client.cpu_ms_per_s"].Value
	switch {
	case late > maxGenLateP75US:
		return fmt.Sprintf("generator ran late: client.gen_late_p75_us %.0f > %d", late, maxGenLateP75US)
	case backlog > maxBacklogShare*float64(requests):
		return fmt.Sprintf("rate not sustained: client.backlog_end %.0f > %.0f%% of %d requests", backlog, 100*maxBacklogShare, requests)
	case cpu > maxClientCPU:
		return fmt.Sprintf("generator too busy: client.cpu_ms_per_s %.0f > %d", cpu, maxClientCPU)
	}
	return ""
}

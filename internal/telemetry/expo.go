// Exposition: the registry rendered as Prometheus text format
// (/metrics) — a relaxed point-in-time read; instruments keep recording
// while a scrape is in flight.
package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per family,
// then one line per sample, with histogram buckets cumulative and
// +Inf-terminated. Families are emitted in sorted name order so
// successive scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevFamily := ""
	for _, inst := range r.snapshot() {
		if inst.desc.name != prevFamily {
			prevFamily = inst.desc.name
			if inst.desc.help != "" {
				bw.WriteString("# HELP ")
				bw.WriteString(inst.desc.name)
				bw.WriteByte(' ')
				bw.WriteString(inst.desc.help)
				bw.WriteByte('\n')
			}
			bw.WriteString("# TYPE ")
			bw.WriteString(inst.desc.name)
			bw.WriteByte(' ')
			bw.WriteString(inst.kind.String())
			bw.WriteByte('\n')
		}
		labels := labelString(inst.desc.labels)
		switch inst.kind {
		case kindCounter:
			bw.WriteString(inst.desc.name)
			bw.WriteString(labels)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(inst.count(), 10))
			bw.WriteByte('\n')
		case kindGauge:
			bw.WriteString(inst.desc.name)
			bw.WriteString(labels)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(inst.gaugeFunc(), 'g', -1, 64))
			bw.WriteByte('\n')
		case kindHistogram:
			writeHistogram(bw, inst.desc.name, inst.desc.labels, inst.hist)
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative _bucket/_sum/_count triplet for
// one histogram. Bucket bounds are scaled into the exposition unit
// (seconds for latency histograms); only occupied buckets plus the
// mandatory +Inf terminator are written, which keeps a 252-bucket
// layout from bloating every scrape.
func writeHistogram(bw *bufio.Writer, name string, labels []Label, h *Histogram) {
	count := h.forBuckets(func(upper int64, cum uint64) {
		bw.WriteString(name)
		bw.WriteString("_bucket")
		bw.WriteString(labelStringWith(labels, Label{Name: "le",
			Value: strconv.FormatFloat(float64(upper)*h.scale, 'g', -1, 64)}))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	})
	bw.WriteString(name)
	bw.WriteString("_bucket")
	bw.WriteString(labelStringWith(labels, Label{Name: "le", Value: "+Inf"}))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(count, 10))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_sum")
	bw.WriteString(labelString(labels))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatFloat(float64(h.sumAll())*h.scale, 'g', -1, 64))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count")
	bw.WriteString(labelString(labels))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(count, 10))
	bw.WriteByte('\n')
}

// labelStringWith renders labels plus one extra pair (the histogram
// "le" bound), keeping the fixed labels' sorted order and appending
// the extra last — Prometheus does not require sorted labels, only
// consistent ones.
func labelStringWith(labels []Label, extra Label) string {
	return labelString(append(append(make([]Label, 0, len(labels)+1), labels...), extra))
}

package span

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// AppendJSON appends one record as a single-line JSON object:
//
//	{"id":3,"parent":1,"kind":"step","step":12,"start_ns":100,"end_ns":250,
//	 "dur_ns":150,"attrs":{"newton":3}}
//
// The encoding is hand-built (keys are code-controlled identifiers, values
// are integers) so it is deterministic and allocation-light; the same bytes
// feed the JSONL export, /debug/spans, and the SSE "span" event.
func AppendJSON(dst []byte, r *Record) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(r.ID), 10)
	dst = append(dst, `,"parent":`...)
	dst = strconv.AppendUint(dst, uint64(r.Parent), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, r.Kind.String()...)
	dst = append(dst, `","step":`...)
	dst = strconv.AppendInt(dst, int64(r.Step), 10)
	dst = append(dst, `,"start_ns":`...)
	dst = strconv.AppendInt(dst, r.Start, 10)
	dst = append(dst, `,"end_ns":`...)
	dst = strconv.AppendInt(dst, r.End, 10)
	dst = append(dst, `,"dur_ns":`...)
	dst = strconv.AppendInt(dst, r.Dur(), 10)
	if r.NAttr > 0 {
		dst = append(dst, `,"attrs":{`...)
		for i, a := range r.AttrList() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = append(dst, a.Key...)
			dst = append(dst, `":`...)
			dst = strconv.AppendInt(dst, a.Val, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// WriteJSONL writes one JSON object per record, in the given order.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range recs {
		buf = AppendJSON(buf[:0], &recs[i])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace writes the records as Chrome trace-event JSON ("X"
// complete events, ts/dur in microseconds), loadable in Perfetto and
// chrome://tracing.
//
// Trace viewers infer nesting per thread lane (tid) from time containment,
// so records are assigned to lanes greedily such that every lane holds a
// laminar family: processing records sorted by (start asc, end desc), a
// record goes into its parent's lane only if the lane's innermost open span
// is exactly the parent, else into an idle lane, else into a new lane.
// Concurrent siblings (worker shards, a fetcher's decode) therefore land on
// separate lanes while sequential children nest under their parent. The
// assignment is deterministic, which keeps the export golden-testable; the
// causal parent is also recorded in args for tools that read the data
// directly.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := &recs[order[a]], &recs[order[b]]
		if ra.Start != rb.Start {
			return ra.Start < rb.Start
		}
		if ra.End != rb.End {
			return ra.End > rb.End
		}
		return ra.ID < rb.ID
	})

	var epoch int64
	if len(order) > 0 {
		epoch = recs[order[0]].Start
	}

	type open struct {
		id  ID
		end int64
	}
	var lanes [][]open
	laneOf := func(r *Record) int {
		for li := range lanes {
			st := lanes[li]
			for len(st) > 0 && st[len(st)-1].end <= r.Start {
				st = st[:len(st)-1]
			}
			lanes[li] = st
		}
		for li, st := range lanes {
			if len(st) > 0 && st[len(st)-1].id == r.Parent {
				return li
			}
		}
		for li, st := range lanes {
			if len(st) == 0 {
				return li
			}
		}
		lanes = append(lanes, nil)
		return len(lanes) - 1
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[` + "\n" +
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"masc"}}`); err != nil {
		return err
	}
	var buf []byte
	for _, idx := range order {
		r := &recs[idx]
		li := laneOf(r)
		lanes[li] = append(lanes[li], open{id: r.ID, end: r.End})

		buf = append(buf[:0], ",\n"...)
		buf = append(buf, `{"name":"`...)
		buf = append(buf, r.Kind.String()...)
		buf = append(buf, `","cat":"masc","ph":"X","ts":`...)
		buf = appendMicros(buf, r.Start-epoch)
		buf = append(buf, `,"dur":`...)
		buf = appendMicros(buf, r.Dur())
		buf = append(buf, `,"pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(li+1), 10)
		buf = append(buf, `,"args":{"id":`...)
		buf = strconv.AppendUint(buf, uint64(r.ID), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, uint64(r.Parent), 10)
		buf = append(buf, `,"step":`...)
		buf = strconv.AppendInt(buf, int64(r.Step), 10)
		for _, a := range r.AttrList() {
			buf = append(buf, `,"`...)
			buf = append(buf, a.Key...)
			buf = append(buf, `":`...)
			buf = strconv.AppendInt(buf, a.Val, 10)
		}
		buf = append(buf, `}}`...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendMicros formats ns as microseconds with millisecond-of-a-microsecond
// precision (three decimals), the unit Chrome trace events use.
func appendMicros(dst []byte, ns int64) []byte {
	neg := ns < 0
	if neg {
		ns = -ns
		dst = append(dst, '-')
	}
	dst = strconv.AppendInt(dst, ns/1000, 10)
	frac := ns % 1000
	dst = append(dst, '.')
	dst = append(dst, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return dst
}

package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A paperRow is one result row of EXPERIMENTS.md. paperRows is the one
// statement of the evaluation contract: EXPERIMENTS.md renders it from
// bench_results.txt, the Test*Shape tests run it on quick reports, and
// -exp claims is its appendix rows.
type paperRow struct {
	section string // the report the row reads and renders under
	claim   string // the Case column
	paper   string // the paper's value, as the paper states it
	note    string // Shape column text after the verdict mark
	// deviation numbers the Known-deviations entry of EXPERIMENTS.md
	// that explains a failing shape; 0 means the shape must hold.
	deviation int
	fullOnly  bool // reads cells only the full run has
	appendix  bool // one of the artifact appendix's claims C1–C4
	// check returns the Measured column and whether the paper's shape
	// holds, reading the section's report r and any other through m.
	check func(r *Report, m meter) (string, bool)
}

// meter hands a check the reports by experiment name.
type meter func(name string) *Report

// reports runs (memoised) the named experiments with opt.
func reports(opt Options) meter {
	return func(name string) *Report {
		e, err := ByName(name)
		if err != nil {
			panic(err)
		}
		return e.Run(opt)
	}
}

func (p paperRow) eval(m meter) (string, bool) { return p.check(m(p.section), m) }

// paperMarkdown renders section's rows as EXPERIMENTS.md holds them.
// Shape is ✔ when the shape holds, ✱ citing the deviation when it does
// not, and ✘ (which fails TestExperimentsDoc) when nothing explains it.
func paperMarkdown(section string, m meter) string {
	var b strings.Builder
	b.WriteString("| Case | Paper | Measured | Shape |\n|---|---|---|---|\n")
	for _, p := range paperRows {
		if p.section != section {
			continue
		}
		measured, holds := p.eval(m)
		mark := "✔"
		if !holds && p.deviation > 0 {
			mark = fmt.Sprintf("✱ (deviation %d)", p.deviation)
		} else if !holds {
			mark = "✘"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", p.claim, p.paper, measured, strings.TrimSpace(mark+" "+p.note))
	}
	return b.String()
}

// Claims verifies the artifact appendix's four major claims (A.4.1):
// the appendix rows, read from the fig6, fig8, fig10 and fig11 reports,
// which All memoises, so after -exp all claims runs no cell of its own.
// Run alone, it builds the four reports concurrently.
func Claims(opt Options) *Report {
	m, wg := reports(opt), sync.WaitGroup{}
	for _, p := range paperRows {
		if p.appendix {
			wg.Add(1)
			go func() { defer wg.Done(); m(p.section) }()
		}
	}
	wg.Wait()
	return claimsReport(m)
}

func claimsReport(m meter) *Report {
	rep := &Report{Name: "claims", Title: "Artifact-appendix claims, verified numerically", Header: []string{"claim", "paper", "measured", "verdict"}}
	for _, p := range paperRows {
		if p.appendix {
			measured, holds := p.eval(m)
			verdict := "SUPPORTED"
			if !holds {
				verdict = "CHECK"
			}
			rep.Rows = append(rep.Rows, []string{p.claim, p.paper, measured, verdict})
		}
	}
	rep.Notes = append(rep.Notes,
		"SUPPORTED = the claim's direction and rough magnitude hold in this reproduction; CHECK = inspect EXPERIMENTS.md for the deviation discussion")
	return rep
}

// row returns the first row whose leading cells are key's "/"-separated
// parts, or nil.
func (r *Report) row(key string) []string {
	k := strings.Split(key, "/")
	for _, row := range r.Rows {
		if len(row) >= len(k) && slices.Equal(row[:len(k)], k) {
			return row
		}
	}
	return nil
}

// num is the number leading row's cell in column col ("198.9±0.0",
// "374.6 ms", "12.0x"), or NaN when there is none, so that a shape over
// a missing cell fails.
func (r *Report) num(row []string, col string) float64 {
	if i := slices.Index(r.Header, col); i >= 0 && i < len(row) {
		if f := strings.Fields(strings.Split(row[i], "±")[0]); len(f) > 0 {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "x"), 64); err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

func (r *Report) v(col, key string) float64 { return r.num(r.row(key), col) }

func (r *Report) col(name string) []float64 {
	xs := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		xs[i] = r.num(row, name)
	}
	return xs
}

func (r *Report) where(keep func(row []string) bool) *Report {
	out := &Report{Header: r.Header}
	for _, row := range r.Rows {
		if keep(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// is accepts the rows whose cell i is one of vs (for where).
func is(i int, vs ...string) func([]string) bool {
	return func(row []string) bool { return slices.Contains(vs, row[i]) }
}

// pairs formats each row's name and its cells in cols, without ±std.
func (r *Report) pairs(cols ...string) string {
	var out []string
	for _, row := range r.Rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i], _, _ = strings.Cut(row[slices.Index(r.Header, c)], "±")
		}
		out = append(out, strings.TrimSpace(row[0]+" "+strings.Join(cells, " / ")))
	}
	return strings.Join(out, ", ")
}

// at is the check of a row that reads single cells of its section, each
// "column@row key": Measured is format over their values (%.1[n]f picks
// one) and the shape holds when holds accepts them.
func at(format string, holds func(x []float64) bool, cells ...string) func(*Report, meter) (string, bool) {
	return func(r *Report, _ meter) (string, bool) {
		x, args := make([]float64, len(cells)), make([]any, len(cells))
		for i, c := range cells {
			col, key, _ := strings.Cut(c, "@")
			x[i] = r.v(col, key)
			args[i] = x[i]
		}
		return fmt.Sprintf(format, args...), holds(x)
	}
}

func ratios(a, b []float64) []float64 {
	xs := make([]float64, len(a))
	for i := range a {
		xs[i] = a[i] / b[i]
	}
	return xs
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// within reports whether every a[i] ≤ k·b[i], below whether every
// a[i] < b[i]; both are false when a is empty or holds a NaN.
func within(a, b []float64, k float64) bool {
	ok := len(a) > 0
	for i := range a {
		ok = ok && a[i] <= k*b[i]
	}
	return ok
}

func below(a, b []float64) bool {
	ok := len(a) > 0
	for i := range a {
		ok = ok && a[i] < b[i]
	}
	return ok
}

func span(format string, xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	return fmt.Sprintf(format+"–"+format, slices.Min(xs), slices.Max(xs))
}

// fig6Means is claim C1's arithmetic over fig6: the mean FC/FS of all
// cells and the mean REAP/FS of the A→B and of the B→A cells.
func fig6Means(r *Report) (fc, reapAB, reapBA float64) {
	reap := func(r *Report) float64 { return mean(ratios(r.col("reap"), r.col("faasnap"))) }
	return mean(ratios(r.col("firecracker"), r.col("faasnap"))), reap(r.where(is(1, "A→B"))), reap(r.where(is(1, "B→A")))
}

// acrossOne is num/den over fig8's cells below and above input ratio 1
// (each function's ratios ascend), and whether, for every function, each
// value above 1 exceeds (rises) or is below (falls) each value below.
func acrossOne(r *Report, num, den string) (lo, hi []float64, rises, falls bool) {
	rises, falls = len(r.Rows) > 0, len(r.Rows) > 0
	for _, row := range r.where(is(1, "1")).Rows {
		f := r.where(is(0, row[0]))
		x, i := ratios(f.col(num), f.col(den)), slices.IndexFunc(f.Rows, is(1, "1"))
		a, b := x[:i], x[i+1:]
		both := len(a) > 0 && len(b) > 0
		rises = rises && both && slices.Max(a) < slices.Min(b)
		falls = falls && both && slices.Max(b) < slices.Min(a)
		lo, hi = append(lo, a...), append(hi, b...)
	}
	return lo, hi, rises, falls
}

// fcOnEBS is, per fig11 function, FC's slowdown on EBS over its local
// run in percent: against fig6's A→B cell, or fig7's for the synthetic
// functions.
func fcOnEBS(m meter) []float64 {
	r := m("fig11")
	xs := r.col("firecracker")
	for i, row := range r.Rows {
		local := m("fig6").v("firecracker", row[0]+"/A→B")
		if math.IsNaN(local) {
			local = m("fig7").v("firecracker", row[0])
		}
		xs[i] = 100 * (xs[i]/local - 1)
	}
	return xs
}

// faultShare is the share of mode's faults in fig2 buckets above d.
func faultShare(r *Report, mode string, above time.Duration) float64 {
	var n float64
	for _, row := range r.Rows {
		if d, err := time.ParseDuration(row[0]); err == nil && d > above {
			n += r.num(row, mode)
		}
	}
	return n / r.v(mode, "total faults")
}

var paperRows = []paperRow{
	{section: "fig1", claim: "hello-world warm / REAP / FC total", paper: "4 / 70 / >200 ms", note: "warm at most 10 ms and below Cached, Cached below FC, REAP not above FC",
		check: at("%.1f / %.1f / %.1f ms (cached %.1f)", func(x []float64) bool { return x[0] <= 10 && x[0] < x[3] && x[3] < x[2] && x[1] <= x[2] },
			"total@hello-world/warm", "total@hello-world/reap", "total@hello-world/firecracker", "total@hello-world/cached")},
	{section: "fig1", claim: "image-diff: REAP slower than FC", paper: "yes", note: "REAP's working set misses the new input",
		check: at("REAP %.1f vs FC %.1f ms", func(x []float64) bool { return x[0] >= x[1] }, "total@image-diff/reap", "total@image-diff/firecracker")},
	{section: "fig1", claim: "Cached ≈ Warm for image/image-diff", paper: "yes", note: "Cached's invoke within 1.4× of warm", fullOnly: true,
		check: at("image: warm %.1f / cached %.1f; image-diff: %.1f / %.1f ms invoke", func(x []float64) bool { return x[1] <= 1.4*x[0] && x[3] <= 1.4*x[2] },
			"invoke@image/warm", "invoke@image/cached", "invoke@image-diff/warm", "invoke@image-diff/cached")},
	{section: "fig1", claim: "REAP setup long for read-list/mmap", paper: "~0.5–0.6 s", note: "blocking fetch exceeds the invoke", fullOnly: true,
		check: at("%.1[1]f / %.1[2]f ms setup", func(x []float64) bool { return x[0] > x[2] && x[1] > x[3] }, "setup@read-list/reap", "setup@mmap/reap", "invoke@read-list/reap", "invoke@mmap/reap")},
	{section: "fig1", claim: "mmap: anon-alloc becomes disk reads under FC", paper: "slowest case", fullOnly: true, check: func(r *Report, _ meter) (string, bool) {
		fc := r.v("total", "mmap/firecracker")
		return fmt.Sprintf("FC %.1f ms vs warm %.1f ms", fc, r.v("total", "mmap/warm")), fc == slices.Max(r.col("total"))
	}},
	{section: "fig2", claim: "Warm; Cached mean / total", paper: "2.5 µs / 12 ms; 3.7 µs / 35 ms", note: "warm's mean in [2, 3.5] µs, Cached's between warm's and FC's",
		check: at("%.1[1]f µs / %.1[2]f ms; %.1[3]f µs / %.1[4]f ms", func(x []float64) bool { return x[0] >= 2 && x[0] <= 3.5 && x[0] < x[2] && x[2] < x[4] },
			"warm@mean (µs)", "warm@fault time (ms)", "cached@mean (µs)", "cached@fault time (ms)", "firecracker@mean (µs)")},
	{section: "fig2", claim: "FC mean / total", paper: "13.3 µs / 120 ms, ~9 % of faults > 32 µs", note: "mean in [8, 25] µs, total in [60, 220] ms", check: func(r *Report, _ meter) (string, bool) {
		mean, total := r.v("firecracker", "mean (µs)"), r.v("firecracker", "fault time (ms)")
		return fmt.Sprintf("%.1f µs / %.1f ms, %.1f %% > 32 µs", mean, total, 100*faultShare(r, "firecracker", 32*time.Microsecond)), mean >= 8 && mean <= 25 && total >= 60 && total <= 220
	}},
	{section: "fig2", claim: "REAP", paper: "6.7 µs / 56 ms, bimodal", note: "bimodal: fast installs and a slow uffd tail", check: func(r *Report, _ meter) (string, bool) {
		fast, slow := 1-faultShare(r, "reap", 2*time.Microsecond), faultShare(r, "reap", 8*time.Microsecond)
		return fmt.Sprintf("%.1f µs / %.1f ms; %.0f %% ≤ 2 µs, %.1f %% > 8 µs", r.v("reap", "mean (µs)"), r.v("reap", "fault time (ms)"), 100*fast, 100*slow), fast > 0 && slow > 0
	}},
	{section: "fig2", claim: "Fault counts", paper: "warm ≈4k, snapshot modes ≈9k", note: "warm fewest",
		check: at("warm %.0[1]f, FC %.0[2]f", func(x []float64) bool { return x[0] < min(x[1], x[2], x[3]) },
			"warm@total faults", "firecracker@total faults", "cached@total faults", "reap@total faults")},
	{section: "table2", claim: "Working sets, inputs A and B", paper: "11.8–536 MB (Table 2)", note: "each within [0.5, 2]× the paper's", check: func(r *Report, _ meter) (string, bool) {
		x := append(ratios(r.col("WS A (MB)"), r.col("paper A")), ratios(r.col("WS B (MB)"), r.col("paper B"))...)
		return fmt.Sprintf("%d functions, measured/paper %s", len(r.Rows), span("%.2f", x)), len(x) > 0 && slices.Min(x) >= 0.5 && slices.Max(x) <= 2
	}},
	{section: "fig6", claim: "FC / FS, mean of the A→B and B→A cells", paper: "≈2.0×", note: "FS faster than FC in every cell; C1 holds the mean to ≥ 1.5×", check: func(r *Report, _ meter) (string, bool) {
		fc, _, _ := fig6Means(r)
		return fmt.Sprintf("%.2f×", fc), below(r.col("faasnap"), r.col("firecracker"))
	}},
	{section: "fig6", claim: "FS vs Cached", paper: "FS 3.5 % slower on average", note: "FS within 1.3× of Cached in every cell; the sign differs because per-region anonymous mappings win more often in the model", check: func(r *Report, _ meter) (string, bool) {
		return fmt.Sprintf("FS %+.1f %% vs Cached on average", 100*(mean(ratios(r.col("faasnap"), r.col("cached")))-1)), within(r.col("faasnap"), r.col("cached"), 1.3)
	}},
	{section: "fig6", claim: "up to 3.5× over REAP", paper: "3.5× (image)", note: "largest REAP/FS gap on image", check: func(r *Report, _ meter) (string, bool) {
		gap := ratios(r.col("reap"), r.col("faasnap"))
		top := r.Rows[slices.Index(gap, slices.Max(gap))]
		return fmt.Sprintf("%.2f× (%s %s)", slices.Max(gap), top[0], top[1]), top[0] == "image"
	}},
	{section: "fig7", claim: "hello-world (FC / REAP / FS / Cached)", paper: "189 / 70 / 70 / 67", note: "FS faster than FC",
		check: at("%.1f / %.1f / %.1f / %.1f", func(x []float64) bool { return x[2] < x[0] }, "firecracker@hello-world", "reap@hello-world", "faasnap@hello-world", "cached@hello-world")},
	{section: "fig7", claim: "mmap (FC / REAP / FS / Cached)", paper: "1108 / 1040 / 733 / 935", note: "FS beats Cached (anonymous mapping)",
		check: at("%.1f / %.1f / %.1f / %.1f", func(x []float64) bool { return x[2] < x[3] }, "firecracker@mmap", "reap@mmap", "faasnap@mmap", "cached@mmap")},
	{section: "fig7", claim: "read-list (FC / REAP / FS / Cached)", paper: "~596 / 651 / 609 / 469", note: "Cached beats FS in the paper", deviation: 3,
		check: at("%.1f / %.1f / %.1f / %.1f", func(x []float64) bool { return x[3] < x[2] }, "firecracker@read-list", "reap@read-list", "faasnap@read-list", "cached@read-list")},
	{section: "fig8", claim: "REAP degrades steeply for ratio > 1; flat below 1", paper: "yes", note: "REAP/FS higher at every ratio above 1 than at every ratio below 1, for every function", check: func(r *Report, _ meter) (string, bool) {
		lo, hi, rises, _ := acrossOne(r, "reap", "faasnap")
		return "REAP/FS " + span("%.2f", lo) + " below 1×, " + span("%.2f", hi) + " above", rises
	}},
	{section: "fig8", claim: "REAP worse than FC at large ratios", paper: "chameleon, image, pagerank, …", note: "image crosses above FC; chameleon does not here", check: func(r *Report, _ meter) (string, bool) {
		hi := r.where(is(1, "4"))
		worse := hi.where(func(row []string) bool { return hi.num(row, "reap") > hi.num(row, "firecracker") })
		return "at 4×: " + worse.pairs(), worse.row("image") != nil
	}},
	{section: "fig8", claim: "FS tracks Cached across the range", paper: "solid/dotted lines overlap", note: "FS ≤ 1.3 × Cached and below FC at every point", check: func(r *Report, _ meter) (string, bool) {
		fs := r.col("faasnap")
		return fmt.Sprintf("FS/Cached %s over %d points", span("%.2f", ratios(fs, r.col("cached"))), len(fs)), within(fs, r.col("cached"), 1.3) && below(fs, r.col("firecracker"))
	}},
	{section: "fig8", claim: "Benefit dilutes as input dominates", paper: "yes", note: "FC/FS lower at every ratio above 1 than at every ratio below 1, for every function", check: func(r *Report, _ meter) (string, bool) {
		lo, hi, _, falls := acrossOne(r, "firecracker", "faasnap")
		return "FC/FS " + span("%.2f", lo) + " below 1×, " + span("%.2f", hi) + " above", falls
	}},
	{section: "table3", claim: "ffmpeg total / fetch, REAP vs FS", paper: "1408 / 257 vs 1070 / 107 ms", note: "REAP's fetch a blocking prefix, FS's concurrent; FS total below REAP's", fullOnly: true,
		check: at("%.1f / %.1f vs %.1f / %.1f ms", func(x []float64) bool { return x[1] > 0 && x[2] < x[0] },
			"total@reap, ffmpeg", "fetch time@reap, ffmpeg", "total@faasnap, ffmpeg", "fetch time@faasnap, ffmpeg")},
	{section: "table3", claim: "REAP image vs FS image", paper: "480 vs 136 ms", note: "REAP's blocking fetch present; FS total below it",
		check: at("%.1[1]f vs %.1[2]f ms", func(x []float64) bool { return x[1] < x[0] && x[2] > 0 }, "total@reap, image", "total@faasnap, image", "fetch time@reap, image")},
	{section: "table3", claim: "Fault waiting time, image", paper: "REAP 342 / FS 109 ms", note: "REAP's uffd stalls dominate",
		check: at("REAP %.1f / FS %.1f ms", func(x []float64) bool { return x[1] < x[0] }, "fault waiting time@reap, image", "fault waiting time@faasnap, image")},
	{section: "table3", claim: "Fetch size, image", paper: "REAP 22 M / FS 88 M", note: "FS fetches more than REAP in the paper", deviation: 1,
		check: at("REAP %.0f MB / FS %.0f MB", func(x []float64) bool { return x[1] > x[0] }, "fetch size@reap, image", "fetch size@faasnap, image")},
	{section: "fig9", claim: "Every step beats baseline FC; full FaaSnap minimal", paper: "yes", note: "on all four metrics; FaaSnap's invoke below concurrent paging's", check: func(r *Report, _ meter) (string, bool) {
		ok := len(r.Rows) == 4 && r.v("invocation time (ms)", "faasnap") < r.v("invocation time (ms)", "concurrent-paging")
		for _, c := range r.Header[1:] {
			col := r.col(c)
			ok = ok && slices.Max(col[1:]) < col[0] && r.v(c, "faasnap") == slices.Min(col)
		}
		return r.pairs(r.Header[1:]...) + " (invoke ms / majors / fault ms / block requests)", ok
	}},
	{section: "fig9", claim: "Per-region has more majors than concurrent paging, but they are less harmful", paper: "yes", note: "coalesced waits on the loader",
		check: at("%.0f vs %.0f majors; fault time %.1f vs %.1f ms", func(x []float64) bool { return x[0] > x[1] && x[2] < x[3] },
			"major page faults@per-region", "major page faults@concurrent-paging", "page fault time (ms)@per-region", "page fault time (ms)@concurrent-paging")},
	{section: "fig9", claim: "Concurrent paging's block requests", paper: "~½ of FC", note: "the loader wins its race more often than the paper's", deviation: 1,
		check: at("%.0f of %.0f", func(x []float64) bool { return x[0] >= x[1]/4 && x[0] <= 3*x[1]/4 }, "block requests@concurrent-paging", "block requests@firecracker")},
	{section: "fig10", claim: "FS < REAP on same-snapshot bursts wider than 1; within 5 % at width 1", paper: "FS ≤ REAP at every width", note: "single-flight loading + shared page cache", check: func(r *Report, _ meter) (string, bool) {
		one, wide := r.where(is(1, "same")).where(is(2, "1")), r.where(is(1, "same")).where(func(row []string) bool { return row[2] != "1" })
		a, b := ratios(one.col("faasnap"), one.col("reap")), ratios(wide.col("faasnap"), wide.col("reap"))
		return "FS/REAP " + span("%.2f", a) + " at width 1, " + span("%.2f", b) + " wider", len(a) > 0 && len(b) > 0 && slices.Max(a) <= 1.05 && slices.Max(b) < 1
	}},
	{section: "fig10", claim: "REAP(same) ≈ REAP(different): it bypasses the cache", paper: "yes", note: "REAP's different/same gap is the smallest", check: func(r *Report, _ meter) (string, bool) {
		top := r.Rows[len(r.Rows)-1][2]
		same, diff := r.where(is(1, "same")).where(is(2, top)), r.where(is(1, "different")).where(is(2, top))
		gap := func(mode string) []float64 { return ratios(diff.col(mode), same.col(mode)) }
		return fmt.Sprintf("different/same at ×%s: REAP %s, FS %s, FC %s", top, span("%.2f", gap("reap")), span("%.2f", gap("faasnap")), span("%.2f", gap("firecracker"))), below(gap("reap"), gap("faasnap")) && below(gap("reap"), gap("firecracker"))
	}},
	{section: "fig10", claim: "FC degrades fastest with different snapshots", paper: "yes", note: "FC worst at the widest different-snapshot burst, and above its width-1 time", check: func(r *Report, _ meter) (string, bool) {
		top := r.Rows[len(r.Rows)-1][2]
		d, one := r.where(is(1, "different")).where(is(2, top)), r.where(is(1, "different")).where(is(2, "1"))
		fc := d.col("firecracker")
		return fmt.Sprintf("×%s: FC/FS %s, FC/REAP %s", top, span("%.2f", ratios(fc, d.col("faasnap"))), span("%.2f", ratios(fc, d.col("reap")))),
			below(d.col("faasnap"), fc) && below(d.col("reap"), fc) && below(one.col("firecracker"), fc)
	}},
	{section: "fig10", claim: "FS ≤ REAP on different-snapshot bursts", paper: "FS lowest", deviation: 2, check: func(r *Report, _ meter) (string, bool) {
		d := r.where(is(1, "different"))
		above := d.where(func(row []string) bool { return d.num(row, "faasnap") > d.num(row, "reap") })
		return fmt.Sprintf("FS above REAP in %d of %d cells", len(above.Rows), len(d.Rows)), len(above.Rows) == 0
	}},
	{section: "fig10", claim: "Everything rises at 64 (CPU/netns bottleneck)", paper: "yes", note: "every series above its width-1 time", fullOnly: true, check: func(r *Report, _ meter) (string, bool) {
		one, wide := r.where(is(2, "1")), r.where(is(2, "64"))
		var rise []float64
		for _, mode := range r.Header[3:] {
			rise = append(rise, ratios(wide.col(mode), one.col(mode))...)
		}
		return "×64 over ×1: " + span("%.2f", rise), len(rise) == 12 && slices.Min(rise) > 1
	}},
	{section: "fig11", claim: "FS faster than FC on every function", paper: "yes", check: func(r *Report, _ meter) (string, bool) {
		return "FC/FS " + span("%.2f×", ratios(r.col("firecracker"), r.col("faasnap"))), below(r.col("faasnap"), r.col("firecracker"))
	}},
	{section: "fig11", claim: "FC EBS vs FC local", paper: "+33 %", note: "FC slower on EBS for every function; the calibration anchor (deviation 4)", check: func(_ *Report, m meter) (string, bool) {
		s := fcOnEBS(m)
		return fmt.Sprintf("%+.0f %% median (%s)", median(s), span("%+.0f %%", s)), len(s) > 0 && slices.Min(s) > 0
	}},
	{section: "fig11", claim: "FS EBS vs FS local", paper: "+28 %", note: "FS slows at least half as much as FC in the paper", deviation: 5, check: func(_ *Report, m meter) (string, bool) {
		fs := 100 * (median(ratios(m("tiered").col("all remote EBS"), m("tiered").col("all local NVMe"))) - 1)
		return fmt.Sprintf("%+.0f %% median", fs), fs >= median(fcOnEBS(m))/2
	}},
	{section: "fig11", claim: "REAP beats FS for very stable working sets", paper: "hello-world, read-list, recognition", note: "partial", deviation: 5, check: func(r *Report, _ meter) (string, bool) {
		wins := r.where(func(row []string) bool { return r.num(row, "reap") < r.num(row, "faasnap") })
		stable := r.where(is(0, "hello-world", "read-list", "recognition"))
		return "REAP / FS: " + wins.pairs("reap", "faasnap") + " ms", len(stable.Rows) == 3 && below(stable.col("reap"), stable.col("faasnap"))
	}},
	{section: "tiered", claim: "LS local + memory remote ≈ all local", paper: "proposed (§7.2)", note: "never 1 % above all-remote or 5 % below all-local", check: func(r *Report, _ meter) (string, bool) {
		x := ratios(r.col("LS local + mem remote"), r.col("all local NVMe"))
		return fmt.Sprintf("tiered/all-local %s on %d functions", span("%.3f", x), len(x)), within(r.col("LS local + mem remote"), r.col("all remote EBS"), 1.01) && slices.Min(x) >= 0.95
	}},
	{section: "footprint", claim: "FS / FC memory, mean ratio", paper: "≈1.06", note: "mean in [0.5, 1.4], each function in [0.3, 1.6]", check: func(r *Report, _ meter) (string, bool) {
		x := r.col("faasnap/firecracker")
		return fmt.Sprintf("%.2f (%s)", mean(x), span("%.2f", x)), mean(x) >= 0.5 && mean(x) <= 1.4 && slices.Min(x) >= 0.3 && slices.Max(x) <= 1.6
	}},
	{section: "footprint", claim: "Functions where FS uses less memory than FC", paper: "3 of 12", note: "a minority in the paper", deviation: 6, check: func(r *Report, _ meter) (string, bool) {
		less := r.where(func(row []string) bool { return r.num(row, "faasnap") < r.num(row, "firecracker") })
		return fmt.Sprintf("%d of %d", len(less.Rows), len(r.Rows)), 2*len(less.Rows) <= len(r.Rows)
	}},
	{section: "coldstart", claim: "Cold start vs FaaSnap vs warm", paper: "cold: several seconds up to minutes (§2.1)", note: "warm < FaaSnap < cold, and cold ≥ 0.5 s, for every function", check: func(r *Report, _ meter) (string, bool) {
		cold, fs := r.col("cold"), r.col("faasnap")
		return fmt.Sprintf("cold %s ms, %s× FaaSnap", span("%.0f", cold), span("%.1f", ratios(cold, fs))), below(r.col("warm"), fs) && below(fs, cold) && slices.Min(cold) >= 500
	}},
	{section: "policy", claim: "Function invoked every ~30 min: p95 start", paper: "snapshots absorb would-be cold starts (§7.1)", note: "FaaSnap < Firecracker < keep-alive only",
		check: at("json: cold %.1f → FC %.1f → FS %.1f ms", func(x []float64) bool { return x[2] < x[1] && x[1] < x[0] },
			"p95 start (ms)@json/30m0s/keep-alive only", "p95 start (ms)@json/30m0s/ka + firecracker", "p95 start (ms)@json/30m0s/ka + faasnap")},
	{section: "policy", claim: "Function invoked every minute", paper: "warm starts are the best choice (§7.1)", note: "at least 10 warm starts per cold one",
		check: at("json: %.0f warm vs %.0f cold starts", func(x []float64) bool { return x[0] >= 10*x[1] }, "warm@json/1m0s/keep-alive only", "cold@json/1m0s/keep-alive only")},
	{section: "ablations", claim: "Merge gap 0 vs 32 pages", paper: "32 chosen (§4.3)", note: "merging cuts regions and mmap calls, never loading-set bytes", check: func(r *Report, m meter) (string, bool) {
		text, ok := at("regions %.0f → %.0f, mmap calls %.0f → %.0f, LS %.1f → %.1f MB", func(x []float64) bool { return x[1] < x[0] && x[3] < x[2] && x[5] >= x[4] },
			"LS regions@merge gap 0 pages", "LS regions@merge gap 32 pages", "mmap calls@merge gap 0 pages", "mmap calls@merge gap 32 pages", "LS MB@merge gap 0 pages", "LS MB@merge gap 32 pages")(r, m)
		return text, ok && len(r.Rows) >= 3
	}},
	{section: "cluster", claim: "Snapshots cut mean start latency", paper: "§7.1/§7.2 proposal", note: "each snapshot policy below half of no-snapshots, which serves no snapshot start", check: func(r *Report, m meter) (string, bool) {
		text, ok := at("no snapshots %.1[1]f ms → proactive %.1[2]f, evict-to-snapshot %.1[3]f ms", func(x []float64) bool { return x[1] < x[0]/2 && x[2] < x[0]/2 && x[3] == 0 },
			"mean start (ms)@no-snapshots", "mean start (ms)@proactive", "mean start (ms)@evict-to-snapshot", "snapshot@no-snapshots")(r, m)
		return text, ok && len(r.Rows) == 3
	}},
	{section: "cluster", claim: "Evict-to-snapshot storage vs proactive", paper: "snapshot only what the pool pushes out (§7.2)", note: "no more snapshot storage than proactive",
		check: at("%.2f vs %.2f GBh", func(x []float64) bool { return x[0] <= x[1] }, "snap GBh@evict-to-snapshot", "snap GBh@proactive")},
	{section: "fig6", claim: "C1: ≈2.0x over FC, ≈1.4x over REAP", paper: "FC/FS 2.0x; REAP/FS 1.55x A→B, 1.16x B→A", appendix: true, check: func(r *Report, _ meter) (string, bool) {
		fc, ab, ba := fig6Means(r)
		return fmt.Sprintf("fig6: FC/FS %.2fx; REAP/FS %.2fx A→B, %.2fx B→A", fc, ab, ba), fc >= 1.5 && ab > ba && ab >= 1.2
	}},
	{section: "fig8", claim: "C2: resilient to input-size changes", paper: "REAP worse than FC at 4x; FaaSnap tracks Cached", appendix: true, check: func(r *Report, _ meter) (string, bool) {
		reap, fs := r.v("reap", "image/4")/r.v("reap", "image/0.25"), r.v("faasnap", "image/4")/r.v("faasnap", "image/0.25")
		return fmt.Sprintf("fig8 image 0.25x→4x growth: REAP %.1fx vs FaaSnap %.1fx; REAP at 4x %.1fms vs FC %.1fms", reap, fs, r.v("reap", "image/4"), r.v("firecracker", "image/4")),
			reap > 2*fs && r.v("reap", "image/4") > r.v("firecracker", "image/4")
	}},
	{section: "fig10", claim: "C3: handles bursty workloads", paper: "FaaSnap ≤ REAP; FC degrades with different snapshots", appendix: true,
		check: at("fig10 hello-world 16-way: same-snapshot FaaSnap %.1fms vs REAP %.1fms; FC same → different %.1fms → %.1fms", func(x []float64) bool { return x[0] <= x[1] && x[3] > x[2] },
			"faasnap@hello-world/same/16", "reap@hello-world/same/16", "firecracker@hello-world/same/16", "firecracker@hello-world/different/16")},
	{section: "fig11", claim: "C4: faster on remote snapshots", paper: "FC/FS 2.06x, REAP/FS 1.20x", appendix: true, check: func(r *Report, _ meter) (string, bool) {
		fc, reap := mean(ratios(r.col("firecracker"), r.col("faasnap"))), mean(ratios(r.col("reap"), r.col("faasnap")))
		return fmt.Sprintf("fig11 EBS: FC/FS %.2fx, REAP/FS %.2fx", fc, reap), fc >= 1.5 && reap >= 1.0
	}},
}

package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"bitmapindex/internal/core"
)

// spec defines one workload: the data it indexes, how bixstore builds and
// serves it, and the query stream the closed loop replays.
type spec struct {
	name string
	// table selects `bixstore csv` + table-mode serve; otherwise `bixstore
	// build` of the single column + index-mode serve.
	table bool
	rows  int
	cols  []column
	// gen fills data[col][row]; row order is the original row order.
	gen func(r *rand.Rand, cols []column, data [][]uint16)
	// codec names the storage codec, order the row reorder (table mode,
	// where every attribute gets its knee design) and base the index base
	// (index mode). Every workload stores bitmap-level (BS) files,
	// range-encoded.
	codec string
	order string
	base  string
	// cache is the serve -cache capacity in bitmaps (index mode only).
	cache int
	conns int
	// setups is how many index builds and server boots a run makes;
	// setup_s is their median.
	setups int
	// streamLen is the length of the replayed query stream; traceQueries
	// the fixed prefix of it the traced run replays in-process.
	streamLen    int
	traceQueries int
	// query draws one query of the stream.
	query func(r *rand.Rand, cols []column) []pred
}

type column struct {
	name string
	card int
}

// pred is one predicate over a raw column value.
type pred struct {
	col int
	op  core.Op
	val int
}

func specs() []*spec {
	tblCols := []column{{"qty", 50}, {"month", 12}, {"price", 1000}, {"day", 365}}
	return []*spec{
		{
			name:         "tbl-raw-1m",
			table:        true,
			rows:         1 << 20,
			cols:         tblCols,
			gen:          genUniform,
			codec:        "raw",
			order:        "none",
			conns:        2,
			setups:       5,
			streamLen:    2048,
			traceQueries: 192,
			query:        conjunction,
		},
		{
			name:         "tbl-roaring-lex-1m",
			table:        true,
			rows:         1 << 20,
			cols:         tblCols,
			gen:          genClustered,
			codec:        "roaring",
			order:        "lex",
			conns:        1,
			setups:       3,
			streamLen:    2048,
			traceQueries: 128,
			query:        conjunction,
		},
		{
			name:         "idx-cached-64k",
			rows:         1 << 16,
			cols:         []column{{"value", 100}},
			gen:          genUniform,
			codec:        "raw",
			base:         "<10,10>",
			cache:        9,
			conns:        1,
			setups:       21,
			streamLen:    8192,
			traceQueries: 4096,
			query:        zipfSingle,
		},
	}
}

func lookupSpec(name string) (*spec, error) {
	var names []string
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// genUniform draws every column independently and uniformly.
func genUniform(r *rand.Rand, cols []column, data [][]uint16) {
	for i := range data[0] {
		for c, col := range cols {
			data[c][i] = uint16(r.Intn(col.card))
		}
	}
}

// genClustered writes rows in runs of one qty value; month follows qty
// most of the time, price sits in a 20-wide band per qty, and day in a
// 35-wide band per month.
func genClustered(r *rand.Rand, _ []column, data [][]uint16) {
	qty, month, price, day := data[0], data[1], data[2], data[3]
	var q int
	for i := range qty {
		if i%64 == 0 || r.Intn(256) == 0 {
			q = r.Intn(50)
		}
		m := (q / 5) % 12
		if r.Intn(5) == 0 {
			m = r.Intn(12)
		}
		qty[i] = uint16(q)
		month[i] = uint16(m)
		price[i] = uint16(q*20 + r.Intn(20))
		day[i] = uint16(m*30 + r.Intn(35))
	}
}

var allOps = []core.Op{core.Lt, core.Le, core.Gt, core.Ge, core.Eq, core.Ne}

// conjunction draws 1-3 predicates over distinct columns, ops uniform over
// the six comparison operators, constants uniform over the column domain.
func conjunction(r *rand.Rand, cols []column) []pred {
	n := 1 + r.Intn(3)
	perm := r.Perm(len(cols))[:n]
	ps := make([]pred, n)
	for i, c := range perm {
		ps[i] = pred{col: c, op: allOps[r.Intn(len(allOps))], val: r.Intn(cols[c].card)}
	}
	return ps
}

// zipfSingle draws one predicate, ops uniform, constants Zipf-skewed
// toward the low end of the domain.
func zipfSingle(r *rand.Rand, cols []column) []pred {
	z := rand.NewZipf(r, 1.2, 1, uint64(cols[0].card-1))
	return []pred{{col: 0, op: allOps[r.Intn(len(allOps))], val: int(z.Uint64())}}
}

// query is one entry of the replayed stream with its brute-force answer.
type query struct {
	preds []pred
	text  string // the q= parameter bixstore parses
	count int    // brute-force match count in original row order
	// rids holds the first ridLimit matching original row ids when this
	// query is in the seeded rids=1 spot-check sample, nil otherwise.
	rids []int
}

// ridLimit is the limit= of spot-checked rids=1 requests.
const ridLimit = 16

// dataset is everything derived from (workload, seed): the columns in
// original row order and the query stream with its answers.
type dataset struct {
	spec   *spec
	rows   int
	data   [][]uint16 // data[col][row]
	stream []query
}

// newDataset generates the workload's data and query stream from seed
// alone and computes every answer by brute force over the columns.
func newDataset(s *spec, seed int64, rows int) *dataset {
	d := &dataset{spec: s, rows: rows, data: make([][]uint16, len(s.cols))}
	for c := range d.data {
		d.data[c] = make([]uint16, rows)
	}
	s.gen(rand.New(rand.NewSource(seed)), s.cols, d.data)

	qr := rand.New(rand.NewSource(seed ^ 0x5eed))
	sample := rand.New(rand.NewSource(seed ^ 0x71d5))
	d.stream = make([]query, s.streamLen)
	for i := range d.stream {
		q := &d.stream[i]
		q.preds = s.query(qr, s.cols)
		q.text = d.text(q.preds)
		if sample.Intn(16) == 0 {
			q.rids = []int{}
		}
	}
	d.answerAll()
	return d
}

// text renders predicates in bixstore's query syntax: "<op> <v>" in index
// mode, "col op v AND ..." in table mode.
func (d *dataset) text(ps []pred) string {
	if !d.spec.table {
		return fmt.Sprintf("%s %d", ps[0].op, ps[0].val)
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%s %s %d", d.spec.cols[p.col].name, p.op, p.val)
	}
	return strings.Join(parts, " AND ")
}

// answerAll fills count (and rids for sampled queries) of every query,
// split across the available CPUs.
func (d *dataset) answerAll() {
	workers := min(runtime.NumCPU(), 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			words := make([]uint64, (d.rows+63)/64)
			for i := w; i < len(d.stream); i += workers {
				q := &d.stream[i]
				q.count, q.rids = d.answer(q.preds, q.rids != nil, words)
			}
		}(w)
	}
	wg.Wait()
}

// answer evaluates the conjunction row by row over the raw columns, one
// predicate at a time into the row bitset words (len (rows+63)/64).
func (d *dataset) answer(ps []pred, wantRIDs bool, words []uint64) (count int, rids []int) {
	for k, p := range ps {
		// match[v] is 1 when value v satisfies the predicate.
		match := make([]uint64, d.spec.cols[p.col].card)
		for v := range match {
			if p.op.Matches(uint64(v), uint64(p.val)) {
				match[v] = 1
			}
		}
		col := d.data[p.col]
		for w := range words {
			var word uint64
			for i, v := range col[w*64 : min(w*64+64, d.rows)] {
				word |= match[v] << i
			}
			if k == 0 {
				words[w] = word
			} else {
				words[w] &= word
			}
		}
	}
	if wantRIDs {
		rids = []int{}
	}
	for w, word := range words {
		count += bits.OnesCount64(word)
		for ; wantRIDs && word != 0 && len(rids) < ridLimit; word &= word - 1 {
			rids = append(rids, w*64+bits.TrailingZeros64(word))
		}
	}
	return count, rids
}

// writeInput writes the generated data as bixstore's input: a CSV with a
// header row in table mode, one value per line in index mode.
func (d *dataset) writeInput(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var buf []byte
	if d.spec.table {
		for c, col := range d.spec.cols {
			if c > 0 {
				w.WriteByte(',')
			}
			w.WriteString(col.name)
		}
		w.WriteByte('\n')
	}
	for r := 0; r < d.rows; r++ {
		buf = buf[:0]
		for c := range d.data {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(d.data[c][r]), 10)
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

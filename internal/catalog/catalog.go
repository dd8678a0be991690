// Package catalog manages a persistent table of bitmap indexes: one
// on-disk index per attribute plus the value dictionaries needed to
// translate raw predicates into rank space. It is the multiple-index
// organization the paper motivates for data warehouses ("the database to
// be fully inverted" in Sybase IQ's terms), with a conjunctive query
// entry point evaluated entirely against the stored indexes.
//
// Layout:
//
//	dir/table.json   descriptor: rows, attribute list, dictionaries
//	dir/<attr>/      one storage.Save output per attribute
package catalog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/design"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/workload"
)

const (
	tableFile = "table.json"
	permFile  = "perm.bin"
)

// tableMeta is the serialized descriptor.
type tableMeta struct {
	Version int        `json:"version"`
	Name    string     `json:"name"`
	Rows    int        `json:"rows"`
	Attrs   []attrMeta `json:"attributes"`
	// Reorder names the row sort applied before bitmap construction
	// ("none", "lex", "gray"). When not "none", perm.bin holds the row
	// permutation (8 bytes little-endian per row, perm[newPos] = origRow)
	// and PermChecksum its CRC-32, so stored bitmaps — built over sorted
	// rows — can be mapped back to original row ids at query time.
	Reorder      string `json:"reorder,omitempty"`
	PermChecksum uint32 `json:"perm_checksum,omitempty"`
}

type attrMeta struct {
	Name string `json:"name"`
	Dir  string `json:"dir"`
	// Dict holds the sorted distinct raw values; rank i maps to Dict[i].
	Dict []int64 `json:"dictionary"`
}

// Options configures table creation.
type Options struct {
	// Store selects the physical layout of every attribute index; zero
	// value means uncompressed bitmap-level storage.
	Store storage.Options
	// BaseFor picks the index design per attribute cardinality; nil means
	// the knee design.
	BaseFor func(card uint64) (core.Base, error)
	// Encoding for every attribute index; default RangeEncoded.
	Encoding core.Encoding
	// Reorder sorts rows by their attribute-rank tuples (in column order)
	// before building the bitmaps, multiplying run-length compression
	// (arXiv:0901.3751). Results are transparently mapped back to
	// original row ids by Query.
	Reorder reorder.Order
}

// Table is an open catalog of attribute indexes.
type Table struct {
	dir   string
	meta  tableMeta
	attrs map[string]*Attr
	// perm is the build-time row permutation (perm[newPos] = origRow),
	// nil when rows were not reordered. Stored bitmaps are positioned in
	// sorted row space; Query maps results back through it.
	perm []int
	// wl is the always-on per-attribute access accountant; Query feeds it
	// one event per predicate.
	wl *workload.Accumulator
}

// Attr is one open attribute: its dictionary and its on-disk index.
type Attr struct {
	Name  string
	dict  *engine.Dict
	store *storage.Store
}

// Dict returns the attribute's value dictionary.
func (a *Attr) Dict() *engine.Dict { return a.dict }

// Store returns the attribute's on-disk index.
func (a *Attr) Store() *storage.Store { return a.store }

// Create builds and persists one bitmap index per relation column. The
// relation's columns must already be loaded (RID/bitmap indexes on the
// relation itself are not required).
func Create(dir string, rel *engine.Relation, opts Options) (*Table, error) {
	if rel.Rows() == 0 {
		return nil, fmt.Errorf("catalog: empty relation")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	baseFor := opts.BaseFor
	if baseFor == nil {
		baseFor = design.Knee
	}
	meta := tableMeta{Version: 1, Name: rel.Name, Rows: rel.Rows(), Reorder: opts.Reorder.String()}
	var perm []int
	if opts.Reorder != reorder.None {
		rankCols := make([][]uint64, 0, len(rel.ColumnNames()))
		for _, name := range rel.ColumnNames() {
			col, err := rel.Column(name)
			if err != nil {
				return nil, err
			}
			rankCols = append(rankCols, col.Ranks())
		}
		perm = reorder.Permutation(opts.Reorder, rankCols)
		pb := make([]byte, 8*len(perm))
		for i, p := range perm {
			binary.LittleEndian.PutUint64(pb[8*i:], uint64(p))
		}
		meta.PermChecksum = crc32.ChecksumIEEE(pb)
		if err := os.WriteFile(filepath.Join(dir, permFile), pb, 0o644); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
	}
	for _, name := range rel.ColumnNames() {
		col, err := rel.Column(name)
		if err != nil {
			return nil, err
		}
		base, err := baseFor(col.Card())
		if err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", name, err)
		}
		ranks := col.Ranks()
		if perm != nil {
			ranks = reorder.Apply(perm, ranks)
		}
		ix, err := core.Build(ranks, col.Card(), base, opts.Encoding, nil)
		if err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", name, err)
		}
		sub := fmt.Sprintf("attr_%03d", len(meta.Attrs))
		if _, err := storage.Save(ix, filepath.Join(dir, sub), opts.Store); err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", name, err)
		}
		meta.Attrs = append(meta.Attrs, attrMeta{Name: name, Dir: sub, Dict: col.Dict().Values()})
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, tableFile), mj, 0o644); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	return Open(dir)
}

// Open loads a table created by Create.
func Open(dir string) (*Table, error) {
	mj, err := os.ReadFile(filepath.Join(dir, tableFile))
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var meta tableMeta
	if err := json.Unmarshal(mj, &meta); err != nil {
		return nil, fmt.Errorf("catalog: bad %s: %w", tableFile, err)
	}
	t := &Table{dir: dir, meta: meta, attrs: make(map[string]*Attr, len(meta.Attrs))}
	if ord, err := reorder.ParseOrder(meta.Reorder); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	} else if ord != reorder.None {
		pb, err := os.ReadFile(filepath.Join(dir, permFile))
		if err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		if got := crc32.ChecksumIEEE(pb); got != meta.PermChecksum {
			return nil, fmt.Errorf("catalog: %s checksum mismatch (crc %08x, want %08x)",
				permFile, got, meta.PermChecksum)
		}
		if len(pb) != 8*meta.Rows {
			return nil, fmt.Errorf("catalog: %s holds %d bytes, want %d", permFile, len(pb), 8*meta.Rows)
		}
		perm := make([]int, meta.Rows)
		for i := range perm {
			perm[i] = int(binary.LittleEndian.Uint64(pb[8*i:]))
		}
		if err := reorder.Validate(perm, meta.Rows); err != nil {
			return nil, fmt.Errorf("catalog: %s: %w", permFile, err)
		}
		t.perm = perm
	}
	for _, am := range meta.Attrs {
		dict, err := engine.DictFromValues(am.Dict)
		if err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", am.Name, err)
		}
		st, err := storage.Open(filepath.Join(dir, am.Dir))
		if err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", am.Name, err)
		}
		if st.Index().Rows() != meta.Rows {
			return nil, fmt.Errorf("catalog: attribute %q has %d rows, table has %d",
				am.Name, st.Index().Rows(), meta.Rows)
		}
		t.attrs[am.Name] = &Attr{Name: am.Name, dict: dict, store: st}
	}
	infos := make([]workload.AttrInfo, len(meta.Attrs))
	for i, am := range meta.Attrs {
		infos[i] = workload.AttrInfo{Name: am.Name, Card: t.attrs[am.Name].dict.Card()}
	}
	t.wl = workload.New(infos)
	return t, nil
}

// Name returns the relation name.
func (t *Table) Name() string { return t.meta.Name }

// Rows returns the relation cardinality.
func (t *Table) Rows() int { return t.meta.Rows }

// Reorder returns the row sort order the indexes were built under.
func (t *Table) Reorder() reorder.Order {
	ord, _ := reorder.ParseOrder(t.meta.Reorder)
	return ord
}

// Permutation returns the build-time row permutation (perm[sortedPos] =
// originalRow), or nil when rows were not reordered. Callers evaluating
// directly against an Attr's Store get bitmaps in sorted row space and
// must map them through this (reorder.MapBack) to reach original row
// ids; Table.Query does so automatically.
func (t *Table) Permutation() []int { return t.perm }

// Attributes returns the attribute names in creation order.
func (t *Table) Attributes() []string {
	out := make([]string, len(t.meta.Attrs))
	for i, am := range t.meta.Attrs {
		out[i] = am.Name
	}
	return out
}

// Attr returns the named attribute.
func (t *Table) Attr(name string) (*Attr, error) {
	a, ok := t.attrs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s has no attribute %q", t.meta.Name, name)
	}
	return a, nil
}

// Query evaluates a conjunction of raw-value predicates entirely against
// the stored indexes (plan P3 with bitmap indexes) and returns the
// qualifying record bitmap. Physical costs accumulate into m when
// non-nil.
func (t *Table) Query(preds []engine.Pred, m *storage.Metrics) (*bitvec.Vector, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("catalog: empty predicate list")
	}
	// The workload accountant needs per-predicate scan/byte deltas even
	// when the caller does not ask for metrics.
	if m == nil {
		m = &storage.Metrics{}
	}
	var out *bitvec.Vector
	for _, p := range preds {
		a, err := t.Attr(p.Col)
		if err != nil {
			return nil, err
		}
		rop, rank, all, none := a.dict.Translate(p.Op, p.Val)
		scans, bytes := m.Stats.Scans, m.BytesRead
		start := time.Now()
		var res *bitvec.Vector
		cls := workload.ClassOf(p.Op)
		switch {
		case none:
			res = bitvec.New(t.meta.Rows)
		case all:
			res = bitvec.NewOnes(t.meta.Rows)
		default:
			cls = workload.ClassOf(rop)
			res, err = a.store.Eval(rop, rank, m)
			if err != nil {
				return nil, fmt.Errorf("catalog: attribute %q: %w", p.Col, err)
			}
		}
		t.wl.Observe(workload.Event{
			Attr:    p.Col,
			Class:   cls,
			Value:   rank,
			Matches: res.Count(),
			Rows:    t.meta.Rows,
			Scans:   m.Stats.Scans - scans,
			Bytes:   m.BytesRead - bytes,
			NS:      time.Since(start).Nanoseconds(),
		})
		if out == nil {
			out = res
		} else {
			out.And(res)
		}
	}
	// The conjunction is ANDed in sorted row space (cheaper: one map-back
	// per query, not per predicate) and translated to original row ids
	// only at the end.
	if t.perm != nil {
		out = reorder.MapBack(t.perm, out)
	}
	return out, nil
}

// Workload returns the table's access accountant. It is always on; Query
// feeds it one event per predicate.
func (t *Table) Workload() *workload.Accumulator { return t.wl }

// Designs describes the current physical design of every attribute in
// creation order — the advisor's "what is on disk" input.
func (t *Table) Designs() []workload.AttrDesign {
	out := make([]workload.AttrDesign, len(t.meta.Attrs))
	for i, am := range t.meta.Attrs {
		a := t.attrs[am.Name]
		ix := a.store.Index()
		out[i] = workload.NewAttrDesign(am.Name, a.dict.Card(), ix.Base(),
			ix.Encoding(), a.store.Options().Codec.String(), t.meta.Reorder)
	}
	return out
}

// Advise compares the table's current design against the weighted
// recommendation under the accumulated workload profile.
func (t *Table) Advise() (*workload.Report, error) {
	return workload.Advise(t.meta.Name, t.Designs(), t.wl.Snapshot())
}

// Exists reports whether dir holds a table descriptor.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, tableFile))
	return err == nil
}

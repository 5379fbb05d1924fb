// Package mme generates synthetic Mobility Management Entity session data
// for the GMDB experiments (paper §III-B, Figs 8 and 11).
//
// The paper evaluates online schema evolution "with real MME data"; real
// LTE session traces are proprietary, so this package synthesizes
// tree-model session objects with the documented shape: 4.7–6.9 KB in
// GMDB's binary encoding (the paper's "about 5–10KB"), a root record keyed
// by IMSI with nested bearer-context records, and a five-version schema chain V3 → V5 → V6 → V7 → V8 where each
// upgrade adds fields (the U1–U4 / D1–D4 transitions of Fig 8).
package mme

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/gmdb/schema"
	"repro/internal/types"
)

// Versions is the registered MME version chain of Fig 8.
var Versions = []int{3, 5, 6, 7, 8}

// SessionType is the GMDB object type name.
const SessionType = "mme_session"

// Schema builds the session schema for one version of the chain.
func Schema(version int) (*schema.Schema, error) {
	bearer := &schema.RecordSchema{Name: "bearer", Fields: []schema.Field{
		{Name: "ebi", Kind: schema.Number, Default: types.NewInt(5)},
		{Name: "qci", Kind: schema.Number, Default: types.NewInt(9)},
		{Name: "tft", Kind: schema.String, Default: types.NewString("")},
		{Name: "gtp_teid", Kind: schema.Number, Default: types.NewInt(0)},
		{Name: "bytes_up", Kind: schema.Number, Default: types.NewInt(0)},
		{Name: "bytes_down", Kind: schema.Number, Default: types.NewInt(0)},
	}}
	root := &schema.RecordSchema{Name: "session", Fields: []schema.Field{
		{Name: "imsi", Kind: schema.String},
		{Name: "msisdn", Kind: schema.String, Default: types.NewString("")},
		{Name: "apn", Kind: schema.String, Default: types.NewString("internet")},
		{Name: "state", Kind: schema.String, Default: types.NewString("REGISTERED")},
		{Name: "tac", Kind: schema.Number, Default: types.NewInt(0)},
		{Name: "cell_id", Kind: schema.Number, Default: types.NewInt(0)},
		{Name: "ambr_up", Kind: schema.Number, Default: types.NewInt(0)},
		{Name: "ambr_down", Kind: schema.Number, Default: types.NewInt(0)},
		{Name: "nas_context", Kind: schema.String, Default: types.NewString("")},
		{Name: "bearers", Kind: schema.RecordArray, Record: bearer},
	}}

	add := func(fs ...schema.Field) { root.Fields = append(root.Fields, fs...) }
	addBearer := func(fs ...schema.Field) { bearer.Fields = append(bearer.Fields, fs...) }

	// Each upgrade in the chain adds fields ("the upgrading of MME from V3
	// to V5 to support a new feature requires more fields to be added in
	// the session data").
	if version >= 5 {
		add(schema.Field{Name: "features", Kind: schema.String, Default: types.NewString("")},
			schema.Field{Name: "dcnr", Kind: schema.Bool, Default: types.NewBool(false)})
		addBearer(schema.Field{Name: "arp", Kind: schema.Number, Default: types.NewInt(8)})
	}
	if version >= 6 {
		add(schema.Field{Name: "nr_restriction", Kind: schema.Bool, Default: types.NewBool(false)},
			schema.Field{Name: "slice_id", Kind: schema.String, Default: types.NewString("")})
		addBearer(schema.Field{Name: "bearer_ambr_up", Kind: schema.Number, Default: types.NewInt(0)})
	}
	if version >= 7 {
		add(schema.Field{Name: "edrx_params", Kind: schema.String, Default: types.NewString("")},
			schema.Field{Name: "paging_ts", Kind: schema.Number, Default: types.NewInt(0)})
	}
	if version >= 8 {
		add(schema.Field{Name: "v2x_services", Kind: schema.Bool, Default: types.NewBool(false)})
		addBearer(schema.Field{Name: "delay_budget", Kind: schema.Number, Default: types.NewInt(100)})
	}

	ok := false
	for _, v := range Versions {
		if v == version {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("mme: version V%d is not in the chain %v", version, Versions)
	}
	return &schema.Schema{Type: SessionType, Version: version, PrimaryKey: "imsi", Root: root}, nil
}

// RegisterAll registers the whole V3..V8 chain.
func RegisterAll(reg *schema.Registry) error {
	for _, v := range Versions {
		s, err := Schema(v)
		if err != nil {
			return err
		}
		if err := reg.Register(s); err != nil {
			return err
		}
	}
	return nil
}

// GenerateSession builds a session object of ~5–7 KB encoded under the given
// version, keyed by a deterministic IMSI derived from id.
func GenerateSession(rng *rand.Rand, version int, id int64) (*schema.Object, error) {
	sc, err := Schema(version)
	if err != nil {
		return nil, err
	}
	root := schema.NewRecord(sc.Root)
	set := func(name string, d types.Datum) {
		if i := sc.Root.FieldIndex(name); i >= 0 {
			root.Values[i] = schema.Value{Scalar: d}
		}
	}
	imsi := fmt.Sprintf("460%012d", id)
	set("imsi", types.NewString(imsi))
	set("msisdn", types.NewString(fmt.Sprintf("+86138%08d", rng.Intn(100000000))))
	set("apn", types.NewString([]string{"internet", "ims", "iot.nb"}[rng.Intn(3)]))
	set("state", types.NewString([]string{"REGISTERED", "IDLE", "CONNECTED"}[rng.Intn(3)]))
	set("tac", types.NewInt(int64(rng.Intn(65536))))
	set("cell_id", types.NewInt(int64(rng.Intn(1<<28))))
	set("ambr_up", types.NewInt(int64(rng.Intn(1000))*1000000))
	set("ambr_down", types.NewInt(int64(rng.Intn(1000))*1000000))
	// nas_context pads the object into the paper's 5-10 KB range.
	set("nas_context", types.NewString(randHex(rng, 2000+rng.Intn(2000))))
	if i := sc.Root.FieldIndex("features"); i >= 0 {
		root.Values[i] = schema.Value{Scalar: types.NewString("dcnr,ho-attach,csfb")}
	}
	if i := sc.Root.FieldIndex("slice_id"); i >= 0 {
		root.Values[i] = schema.Value{Scalar: types.NewString(fmt.Sprintf("slice-%03d", rng.Intn(100)))}
	}

	bi := sc.Root.FieldIndex("bearers")
	bearerSchema := sc.Root.Fields[bi].Record
	nBearers := 8 + rng.Intn(4)
	bearers := make([]*schema.Record, nBearers)
	for j := 0; j < nBearers; j++ {
		b := schema.NewRecord(bearerSchema)
		bset := func(name string, d types.Datum) {
			if i := bearerSchema.FieldIndex(name); i >= 0 {
				b.Values[i] = schema.Value{Scalar: d}
			}
		}
		bset("ebi", types.NewInt(int64(5+j)))
		bset("qci", types.NewInt(int64(1+rng.Intn(9))))
		bset("tft", types.NewString(randHex(rng, 150+rng.Intn(150))))
		bset("gtp_teid", types.NewInt(int64(rng.Intn(1<<30))))
		bset("bytes_up", types.NewInt(int64(rng.Intn(1<<30))))
		bset("bytes_down", types.NewInt(int64(rng.Intn(1<<30))))
		bearers[j] = b
	}
	root.Values[bi] = schema.Value{Records: bearers}

	return &schema.Object{Type: SessionType, Version: version, Root: root}, nil
}

func randHex(rng *rand.Rand, n int) string {
	const hex = "0123456789abcdef"
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(hex[rng.Intn(16)])
	}
	return sb.String()
}

// SessionDelta builds a realistic small update: bump one bearer's byte
// counters and the session state (what a data-plane event would touch).
func SessionDelta(rng *rand.Rand, version int, imsi string, bearerIdx int) (*schema.Delta, error) {
	sc, err := Schema(version)
	if err != nil {
		return nil, err
	}
	bi := sc.Root.FieldIndex("bearers")
	bearer := sc.Root.Fields[bi].Record
	up := bearer.FieldIndex("bytes_up")
	down := bearer.FieldIndex("bytes_down")
	state := sc.Root.FieldIndex("state")
	return &schema.Delta{
		Type: SessionType, Version: version, Key: types.NewString(imsi),
		Patches: []schema.Patch{
			{Path: []schema.PathElem{{Field: bi, Index: bearerIdx}, {Field: up, Index: -1}},
				Value: schema.Value{Scalar: types.NewInt(int64(rng.Intn(1 << 20)))}},
			{Path: []schema.PathElem{{Field: bi, Index: bearerIdx}, {Field: down, Index: -1}},
				Value: schema.Value{Scalar: types.NewInt(int64(rng.Intn(1 << 22)))}},
			{Path: []schema.PathElem{{Field: state, Index: -1}},
				Value: schema.Value{Scalar: types.NewString("CONNECTED")}},
		},
	}, nil
}

// ConversionMatrix reproduces Fig 8: the upgrade/downgrade legality matrix
// over the version chain. Entry [i][j] is "Uk"/"Dk" for adjacent
// transitions, "X" for illegal pairs and "-" on the diagonal.
func ConversionMatrix(reg *schema.Registry) [][]string {
	n := len(Versions)
	out := make([][]string, n)
	for i := range Versions {
		out[i] = make([]string, n)
		for j := range Versions {
			kind, err := reg.Conversion(SessionType, Versions[i], Versions[j])
			switch {
			case i == j:
				out[i][j] = "-"
			case err != nil:
				out[i][j] = "X"
			case kind == schema.Upgrade:
				out[i][j] = fmt.Sprintf("U%d (%d->%d)", i+1, Versions[i], Versions[j])
			case kind == schema.Downgrade:
				out[i][j] = fmt.Sprintf("D%d (%d->%d)", j+1, Versions[i], Versions[j])
			default:
				out[i][j] = "?"
			}
		}
	}
	return out
}

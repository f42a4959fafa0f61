package vds

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/obs"
	"chimera/internal/vdl"
)

// exportSum is the SHA-256 of a catalog's canonical export bytes.
func exportSum(t *testing.T, c *catalog.Catalog) [32]byte {
	t.Helper()
	exp := c.Export()
	var buf bytes.Buffer
	if err := codec.EncodeSnapshot(&buf, &exp); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestBatchVDLAtomic: a program that fails on its last statement is
// refused whole — before the batch path, its two datasets stayed.
func TestBatchVDLAtomic(t *testing.T) {
	cat, client := startServer(t, "s")
	if err := client.PostVDL(context.Background(), `DS kept;`); err != nil {
		t.Fatal(err)
	}
	before := exportSum(t, cat)
	err := client.PostVDL(context.Background(), `DS a; DS b; DV x->nope( a2=@{output:"c"} );`)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 404 {
		t.Fatalf("want 404 for the unknown transformation, got %v", err)
	}
	if exportSum(t, cat) != before {
		t.Fatalf("refused program changed the catalog: %+v", cat.Stats())
	}
}

// TestBatchVDLDurableOneCommit: a durable program of 5,000 statements
// waits for one group commit, not one per statement.
func TestBatchVDLDurableOneCommit(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), dtype.StandardRegistry(), catalog.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	hs := httptest.NewServer(NewServer("s", cat))
	defer hs.Close()
	var src strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&src, "DS d%d;\n", i)
	}
	batches0, records0 := catalog.WALBatchStats()
	start := time.Now()
	if err := NewClient(hs.URL).PostVDL(context.Background(), src.String()); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if batches, records := catalog.WALBatchStats(); batches-batches0 != 1 || records-records0 != 5000 {
		t.Fatalf("%v records in %d group commits, want 5000 in 1", records-records0, batches-batches0)
	}
	if st := cat.Stats(); st.Datasets != 5000 {
		t.Fatalf("datasets: %d", st.Datasets)
	}
	t.Logf("5,000 DS statements, one durable batch: %v", took)
}

// nestedProgram defines depth compounds, each calling the one below it
// twice through an intermediate, over one simple transformation, and
// one derivation of the top compound: it expands to 2^depth leaves.
func nestedProgram(depth int) string {
	var b strings.Builder
	b.WriteString(`TR leaf( output o, input i ) { argument stdin = ${input:i}; argument stdout = ${output:o}; exec = "/bin/cat"; }` + "\n")
	callee := "leaf"
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `TR c%d( input i, inout m=@{inout:"m%d":""}, output o ) { %s( o=${output:m}, i=${i} ); %s( o=${o}, i=${input:m} ); }`+"\n",
			i, i, callee, callee)
		callee = fmt.Sprintf("c%d", i)
	}
	fmt.Fprintf(&b, `DV top->%s( i=@{input:"seed"}, o=@{output:"result"} );`+"\n", callee)
	return b.String()
}

// TestPostVDLExpandsCompounds: a derivation of a nested compound is
// stored as its simple leaves, over the wire as locally.
func TestPostVDLExpandsCompounds(t *testing.T) {
	cat, client := startServer(t, "s")
	if err := client.PostVDL(context.Background(), nestedProgram(5)); err != nil {
		t.Fatal(err)
	}
	if st := cat.Stats(); st.Derivations != 32 {
		t.Fatalf("%d derivations stored, want the 32 leaves", st.Derivations)
	}
	lin, err := cat.Lineage("result")
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Steps) != 32 {
		t.Errorf("lineage of result: %d steps, want 32", len(lin.Steps))
	}
}

// TestExpansionBombRefused: 40 compounds, each calling the next twice,
// would expand one derivation to 2^40 leaves. The loader counts the
// statements after expansion before it expands anything: the server
// answers 413 and the local loader refuses with the same error, both
// quickly, and neither catalog changes.
func TestExpansionBombRefused(t *testing.T) {
	prog, err := vdl.Parse(nestedProgram(40))
	if err != nil {
		t.Fatal(err)
	}
	cat, client := startServer(t, "s")
	before := exportSum(t, cat)
	start := time.Now()
	err = client.PostVDL(context.Background(), nestedProgram(40))
	took := time.Since(start)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("want 413, got %v", err)
	}
	if took > time.Second {
		t.Errorf("refusing the bomb took %v", took)
	}
	if exportSum(t, cat) != before {
		t.Fatal("refused program changed the catalog")
	}

	local := catalog.New(dtype.StandardRegistry())
	localBefore := exportSum(t, local)
	start = time.Now()
	_, err = ApplyProgram(local, prog)
	if took := time.Since(start); took > time.Second {
		t.Errorf("refusing the bomb locally took %v", took)
	}
	if !errors.Is(err, errTooLarge) || err.Error() != re.Message {
		t.Fatalf("local loader: %v, server: %q", err, re.Message)
	}
	if exportSum(t, local) != localBefore {
		t.Fatal("refused program changed the local catalog")
	}
}

// TestPutCompoundDerivationRefused: the catalog holds only simple
// derivations, so a compound one PUT directly is refused (it would
// load, expanded, as a VDL program) and the export does not move. The
// compound has no intermediate, so nothing else refuses it.
func TestPutCompoundDerivationRefused(t *testing.T) {
	cat, client := startServer(t, "s")
	prog, err := vdl.Parse(`
TR leaf( output o, input i ) { argument stdin = ${input:i}; argument stdout = ${output:o}; exec = "/bin/cat"; }
TR wrap( input i, output o ) { leaf( o=${o}, i=${i} ); }
DV w->wrap( i=@{input:"a"}, o=@{output:"b"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range prog.Transformations {
		if err := client.PutTransformation(tr); err != nil {
			t.Fatal(err)
		}
	}
	before := exportSum(t, cat)
	_, err = client.PutDerivation(prog.Derivations[0])
	var re *RemoteError
	if !errors.As(err, &re) || re.Status/100 != 4 {
		t.Fatalf("want a 4xx for a compound derivation, got %v", err)
	}
	if exportSum(t, cat) != before {
		t.Fatalf("refused derivation changed the catalog: %+v", cat.Stats())
	}
	if _, err := cat.AddDerivation(prog.Derivations[0]); !errors.Is(err, catalog.ErrInvalid) {
		t.Errorf("AddDerivation of a compound derivation: %v, want ErrInvalid", err)
	}
}

// TestPostVDLClientPath: PostVDL goes through the client's one request
// path. A refused program's error carries the server's message, not
// its JSON envelope; the caller's span travels as traceparent; and the
// response read cap holds.
func TestPostVDLClientPath(t *testing.T) {
	const bad = `DS a; DV x->nope( a2=@{output:"c"} );`
	prog, err := vdl.Parse(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, want := ApplyProgram(catalog.New(dtype.StandardRegistry()), prog)
	if want == nil {
		t.Fatal("the local loader accepted the program")
	}
	_, client := startServer(t, "s")
	err = client.PostVDL(context.Background(), bad)
	var re *RemoteError
	if !errors.As(err, &re) || re.Message != want.Error() {
		t.Fatalf("client error %v, want the server's message %q", err, want.Error())
	}

	var gotHeader string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get("traceparent")
		w.Write(bytes.Repeat([]byte("x"), 1024))
	}))
	defer hs.Close()
	ctx, span := obs.StartSpan(obs.WithTracer(context.Background(), obs.NewTracer()), "caller")
	c := NewClient(hs.URL)
	c.MaxResponseBytes = 100
	if err := c.PostVDL(ctx, `DS a;`); !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("a 1 KiB reply past a 100-byte cap: %v", err)
	}
	span.End()
	if want := span.Context().Traceparent(); gotHeader != want {
		t.Errorf("traceparent %q, want %q", gotHeader, want)
	}
}

package vds

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
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
	if err := client.PostVDL(`DS kept;`); err != nil {
		t.Fatal(err)
	}
	before := exportSum(t, cat)
	err := client.PostVDL(`DS a; DS b; DV x->nope( a2=@{output:"c"} );`)
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
	if err := NewClient(hs.URL).PostVDL(src.String()); err != nil {
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

package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/schema"
)

// replyTypes are the media types the reply oracles ask for.
var replyTypes = []string{codec.JSONContentType, codec.BinaryContentType}

// encodeReply encodes results the way a search reply carries them: the
// kind's objects as a JSON array ("[]" when none), or a binary/v1 frame
// holding only the kind's section. encodes counts its calls.
func encodeReply(kind Kind, mediaType string, encodes *atomic.Int64) func(Results) ([]byte, error) {
	return func(res Results) ([]byte, error) {
		encodes.Add(1)
		var p codec.Payload
		var v any
		switch kind {
		case KDataset:
			p.Datasets, v = res.Datasets, append([]schema.Dataset{}, res.Datasets...)
		case KTransformation:
			p.Transformations, v = res.Transformations, append([]schema.Transformation{}, res.Transformations...)
		default:
			p.Derivations, v = res.Derivations, append([]schema.Derivation{}, res.Derivations...)
		}
		var buf bytes.Buffer
		var err error
		if mediaType == codec.BinaryContentType {
			err = codec.EncodeReply(&buf, &p)
		} else {
			err = json.NewEncoder(&buf).Encode(v)
		}
		return buf.Bytes(), err
	}
}

// replyVsFresh asks Reply for a body and then encodes a fresh uncached
// evaluation on a new View; stable is false when a writer moved the
// catalog in between.
func replyVsFresh(c *catalog.Catalog, kind Kind, e Expr, mediaType string, encodes *atomic.Int64) (got, want []byte, stable bool, err error) {
	seq := c.Seq()
	if got, err = Reply(context.Background(), c, kind, e, mediaType, encodeReply(kind, mediaType, encodes)); err != nil {
		return
	}
	v := c.View()
	res, _, err := evalView(v, kind, e)
	v.Close()
	if err != nil {
		return
	}
	var fresh atomic.Int64
	want, err = encodeReply(kind, mediaType, &fresh)(res)
	return got, want, c.Seq() == seq, err
}

// checkReplyPool asks for every pool predicate, kind and media type
// twice — the second a memo hit — and fails unless each body equals a
// fresh encode at the same version. It returns how many it compared.
func checkReplyPool(t *testing.T, c *catalog.Catalog, pool []Expr, label string, encodes *atomic.Int64) (compared int) {
	t.Helper()
	for _, e := range pool {
		for _, kind := range []Kind{KDataset, KTransformation, KDerivation} {
			for _, mt := range replyTypes {
				for rep := 0; rep < 2; rep++ {
					got, want, stable, err := replyVsFresh(c, kind, e, mt, encodes)
					if err != nil {
						t.Fatalf("%s: Reply(%d, %s, %s): %v", label, kind, e, mt, err)
					}
					if !stable {
						continue
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: Reply(%d, %s, %s) differs from a fresh encode at the same version", label, kind, e, mt)
					}
					compared++
				}
			}
		}
	}
	return compared
}

// TestReplyEqualsFreshEncodeRandomized is the reply memo's oracle: over
// random histories through every mutation path, each body Reply hands
// out, JSON or binary, encoded now or stored earlier, is byte for byte
// the encoding of planning and executing the query afresh.
func TestReplyEqualsFreshEncodeRandomized(t *testing.T) {
	resetCache(t)
	pool := parsePool(t)
	var encodes atomic.Int64
	compared := 0
	for seed := int64(0); seed < 3; seed++ {
		c := randomCatalog(t, rand.New(rand.NewSource(seed)), 1)
		h := newCacheHistory(c, seed, "")
		compared += checkReplyPool(t, c, pool, fmt.Sprintf("seed %d initial", seed), &encodes)
		for step := 0; step < 40; step++ {
			h.step()
			compared += checkReplyPool(t, c, pool, fmt.Sprintf("seed %d step %d", seed, step), &encodes)
		}
	}
	// Each predicate, kind and media type is asked for twice per version,
	// and the second request must come from the memo.
	if n := encodes.Load(); n > int64(compared/2) {
		t.Fatalf("%d encodes for %d replies: repeats were encoded again", n, compared)
	}
}

// TestReplyEqualsFreshEncodeConcurrent is the oracle under concurrency
// (run it with -race): 4 readers ask for replies while 2 writers run
// random histories, so bodies are stored into entries of versions the
// catalog has already left, and memo slots are installed by racing
// readers.
func TestReplyEqualsFreshEncodeConcurrent(t *testing.T) {
	resetCache(t)
	pool := parsePool(t)
	c := randomCatalog(t, rand.New(rand.NewSource(11)), 1)
	steps := 400
	if testing.Short() {
		steps = 100
	}
	var writers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			h := newCacheHistory(c, int64(200+w), fmt.Sprintf("w%d", w))
			for i := 0; i < steps; i++ {
				h.step()
			}
		}(w)
	}
	go func() { writers.Wait(); close(done) }()

	var readers sync.WaitGroup
	var compared, encodes atomic.Int64
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func(rd int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, e := range pool {
					kind, mt := Kind(i%3), replyTypes[(i+rd)%2]
					got, want, stable, err := replyVsFresh(c, kind, e, mt, &encodes)
					if err != nil {
						t.Error(err)
						return
					}
					if stable && !bytes.Equal(got, want) {
						t.Errorf("reader %d: Reply(%d, %s, %s) differs from a fresh encode at the same version", rd, kind, e, mt)
						return
					}
					if stable {
						compared.Add(1)
					}
				}
			}
		}(rd)
	}
	readers.Wait()
	if compared.Load() == 0 {
		t.Fatal("no concurrent reply was compared at a stable version")
	}
	var quiet atomic.Int64
	if n := checkReplyPool(t, c, pool, "after writers", &quiet); n != 2*2*3*len(pool) {
		t.Fatalf("compared %d replies at rest, want %d", n, 2*2*3*len(pool))
	}
}

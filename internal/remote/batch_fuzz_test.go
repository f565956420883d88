package remote

// FuzzBatchFrames fuzzes the client's /v1/batch frame reader with arbitrary
// response bytes. The invariants are the stream's safety contract: the
// reader never panics, delivers frames in order and at most one per cell,
// and a cell yields a result only from a frame that verifies — the body's
// SHA-256 matches its header, a 200 frame echoes its cell's key, and the
// body strictly decodes: one JSON value with no unknown field and nothing
// but whitespace after it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"ipex/internal/nvp"
)

// fuzzKeys are the cells every fuzzed stream is read for.
var fuzzKeys = []string{testKey, "feedfacefeedfacefeedfacefeedface", "0123456789abcdef0123456789abcdef"}

func frames(t testing.TB, fs ...func(*bytes.Buffer)) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range fs {
		f(&b)
	}
	return b.Bytes()
}

func frame(key string, status int, body string) func(*bytes.Buffer) {
	return func(b *bytes.Buffer) {
		_ = WriteBatchFrame(b, key, status, "hit", []byte(body))
	}
}

func FuzzBatchFrames(f *testing.F) {
	whole := frames(f, frame(fuzzKeys[0], 200, testBody), frame(fuzzKeys[1], 429, "busy"),
		frame(fuzzKeys[2], 200, `{"App":"gsme","Cycles":7}`))
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(frames(f, frame(fuzzKeys[1], 200, testBody)))                     // wrong key
	f.Add(frames(f, frame(fuzzKeys[0], 200, `{"App":"fft","Bogus":1}`)))    // unknown field
	f.Add(frames(f, frame(fuzzKeys[0], 200, testBody+`{}`)))                // trailing junk: refused
	f.Add(frames(f, frame(fuzzKeys[0], 200, testBody+" \n")))               // trailing whitespace: accepted
	f.Add([]byte(`{"key":"x","status":200,"sha256":"00","len":-1}` + "\n")) // negative length
	f.Add([]byte(`{"key":"x","status":200,"sha256":"00","len":99999999999}` + "\n"))
	f.Add([]byte("\n\n\n"))
	corrupt := bytes.Clone(whole)
	corrupt[len(corrupt)-3] ^= 0x20
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		next := 0
		n, kind, err := readBatch(bytes.NewReader(data), fuzzKeys, func(i int, fr BatchFrame, body []byte) {
			if i != next {
				t.Fatalf("frame %d delivered after %d frames", i, next)
			}
			next++
			sum := sha256.Sum256(body)
			if fr.SHA256 != hex.EncodeToString(sum[:]) || fr.Len != len(body) {
				t.Fatalf("frame %d delivered with a body that does not match its header %+v", i, fr)
			}
			if !bytes.Contains(data, body) {
				t.Fatalf("frame %d delivered a body that is not in the stream", i)
			}
			if fr.Status != http.StatusOK {
				return
			}
			if fr.Key != fuzzKeys[i] {
				t.Fatalf("frame %d for key %s delivered under key %q", i, fuzzKeys[i], fr.Key)
			}
			res, err := decodeResult(body)
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var want nvp.Result
			wantErr := dec.Decode(&want)
			if wantErr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
				wantErr = errors.New("trailing data")
			}
			if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(res, want)) {
				t.Fatalf("frame %d yields %+v (err %v); its body strictly decodes to %+v (err %v)", i, res, err, want, wantErr)
			}
		})
		if n != next {
			t.Fatalf("readBatch reports %d frames, delivered %d", n, next)
		}
		if (n == len(fuzzKeys)) != (err == nil) || (err == nil) != (kind == outcomeOK) {
			t.Fatalf("readBatch: %d of %d frames with outcome %d and error %v", n, len(fuzzKeys), kind, err)
		}
	})
}

package session

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/uni"
	"pathcomplete/internal/ws"
)

// FuzzSessionProtocol fuzzes the client-facing surface end to end:
// the frame codec (malformed JSON, unknown types, seq games,
// oversized expressions) and the live session state machine behind it
// (a real Run over a real WebSocket, including mid-search close). The
// input is split on newlines into a frame tape; a trailing empty
// segment closes the connection abruptly instead of cleanly.
//
// The invariants: the server never panics, never hangs past the read
// deadline while frames are owed, never emits an undecodable frame,
// and answers every accepted seq with at most one terminal frame and
// no frames after it.
func FuzzSessionProtocol(f *testing.F) {
	f.Add([]byte(`{"type":"update","seq":1,"expr":"ta~n"}`))
	f.Add([]byte(`{"type":"update","seq":1,"expr":"ta~n"}` + "\n" + `{"type":"update","seq":2,"expr":"ta~na"}`))
	f.Add([]byte(`{"type":"update","seq":2,"expr":"ta~n"}` + "\n" + `{"type":"update","seq":1,"expr":"ta~n"}`))
	f.Add([]byte(`{"type":"update","seq":1,"expr":"ta~name"}` + "\n")) // abrupt close mid-search
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"type":"query","seq":1}`))
	f.Add([]byte(`{"type":"update","seq":0,"expr":"ta~n"}`))
	f.Add([]byte(`{"type":"update","seq":1,"expr":"` + strings.Repeat("x", 300) + `"}`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(`{"type":"update","seq":1,"expr":"ta~"}` + "\n" + `{"type":"update","seq":2,"expr":"ta~name"}`))

	reg := registry.Static(uni.New(), nil, core.Exact())
	var wg sync.WaitGroup
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := ws.Upgrade(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		wg.Add(1)
		defer wg.Done()
		Run(r.Context(), conn, Config{
			ID:         "fuzz",
			Registry:   reg,
			Debounce:   -1,
			MaxExprLen: 128,
		})
	}))
	f.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Exercise the codec directly across seq states; must never
		// panic, and a nil error implies an accepted update.
		if cf, perr := decodeClient(data, 0, 128); perr == nil {
			if cf.Type != TypeUpdate || cf.Seq == 0 || len(cf.Expr) > 128 {
				t.Fatalf("decodeClient accepted invalid frame %+v", cf)
			}
		}
		decodeClient(data, ^uint64(0), 128) // max lastSeq: everything is a regression

		conn, err := ws.Dial(srv.URL)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		// A failed check must still end the server's session, or the
		// corpus cleanup waits on it.
		defer conn.Close(ws.CloseNormal, "")
		frames := strings.Split(string(data), "\n")
		abrupt := len(frames) > 1 && frames[len(frames)-1] == ""
		if abrupt {
			frames = frames[:len(frames)-1]
		}
		if len(frames) > 8 {
			frames = frames[:8]
		}
		for _, fr := range frames {
			if err := conn.WriteMessage(ws.OpText, []byte(fr)); err != nil {
				break // server already closed on a fatal violation
			}
		}
		if abrupt {
			// Mid-search close: drop the TCP conn without a close frame.
			conn.SetReadDeadline(time.Now())
			conn.Close(ws.CloseGoingAway, "")
			return
		}
		terminal := map[uint64]string{}
		sawHello := false
		for n := 0; n < 200; n++ {
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			op, msg, err := conn.ReadMessage()
			if err != nil {
				break // closed (fatal violation) or drained (deadline)
			}
			if op != ws.OpText {
				t.Fatalf("non-text server frame op=%d", op)
			}
			var sf ServerFrame
			if err := json.Unmarshal(msg, &sf); err != nil {
				t.Fatalf("undecodable server frame %q: %v", msg, err)
			}
			switch sf.Type {
			case TypeHello:
				if sawHello {
					t.Fatalf("second hello")
				}
				sawHello = true
			case TypeBatch:
				if reason, done := terminal[sf.Seq]; done {
					t.Fatalf("batch after terminal %q for seq %d", reason, sf.Seq)
				}
			case TypeError:
				if sf.Code == CodeBadFrame || sf.Code == CodeBadSeq {
					break // fatal, session-level: the echoed seq was never accepted
				}
				fallthrough
			case TypeFinal, TypeSkipped:
				if reason, done := terminal[sf.Seq]; done {
					t.Fatalf("second terminal %q after %q for seq %d", sf.Type, reason, sf.Seq)
				}
				terminal[sf.Seq] = sf.Type
			case TypeRebind:
			default:
				t.Fatalf("unknown server frame type %q", sf.Type)
			}
		}
		if !sawHello {
			t.Fatalf("no hello frame")
		}
	})
}

// TestFuzzSeedsSmoke replays the fuzz seed corpus once in a normal
// test run, so `go test` exercises the protocol fuzz paths even when
// fuzzing is not invoked.
func TestFuzzSeedsSmoke(t *testing.T) {
	seeds := [][]byte{
		[]byte(`{"type":"update","seq":1,"expr":"ta~n"}`),
		[]byte(`{not json`),
		[]byte(fmt.Sprintf(`{"type":"update","seq":1,"expr":"%s"}`, strings.Repeat("x", 300))),
	}
	for _, s := range seeds {
		if cf, perr := decodeClient(s, 0, 128); perr == nil {
			if cf.Type != TypeUpdate {
				t.Fatalf("decodeClient accepted %q", s)
			}
		}
	}
}

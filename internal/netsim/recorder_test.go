package netsim_test

import (
	"reflect"
	"testing"

	"sublinear/internal/cloud"
	"sublinear/internal/netsim"
)

type onePayload struct{}

func (onePayload) Bits(int) int { return 1 }
func (onePayload) Kind() string { return "one" }

// scripted sends the scripted outbox of each round and is done after
// round end.
type scripted struct {
	script map[int][]netsim.Send
	end    int
	last   int
}

func (m *scripted) Step(_ *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.last = round
	return m.script[round]
}
func (m *scripted) Done() bool  { return m.last >= m.end }
func (m *scripted) Output() any { return nil }

// TestTraceRecords checks the event stream carries what the
// influence-cloud recorder needs: each delivered message's edge in
// first-crossing order and every node's first send and receive rounds.
func TestTraceRecords(t *testing.T) {
	for _, mode := range []netsim.RunMode{netsim.Sequential, netsim.Parallel} {
		machines := []netsim.Machine{
			&scripted{end: 3, script: map[int][]netsim.Send{
				1: {{Port: 1, Payload: onePayload{}}},
				2: {{Port: 1, Payload: onePayload{}}, {Port: 2, Payload: onePayload{}}},
			}},
			&scripted{end: 3},
			&scripted{end: 3},
		}
		rec := cloud.NewRecorder(3)
		if _, err := netsim.Execute(mode, netsim.Config{N: 3, Alpha: 1, MaxRounds: 3, Tracer: rec}, machines, nil); err != nil {
			t.Fatal(err)
		}
		if rec.EdgeCount() != 2 {
			t.Fatalf("mode %d: edges = %d, want 2 (0->1, 0->2)", mode, rec.EdgeCount())
		}
		if rec.FirstSend(0) != 1 || rec.FirstSend(1) != 0 {
			t.Errorf("mode %d: first sends: %d %d", mode, rec.FirstSend(0), rec.FirstSend(1))
		}
		if rec.FirstReceive(1) != 2 {
			t.Errorf("mode %d: node 1 first receive = %d, want 2", mode, rec.FirstReceive(1))
		}
		var edges [][3]int
		rec.Edges(func(u, v, r int) bool {
			edges = append(edges, [3]int{u, v, r})
			return true
		})
		want := [][3]int{{0, 1, 1}, {0, 2, 2}}
		if !reflect.DeepEqual(edges, want) {
			t.Errorf("mode %d: edges = %v, want %v", mode, edges, want)
		}
	}
}

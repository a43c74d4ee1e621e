//go:build !race

package transport

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"fedmp/internal/core"
	"fedmp/internal/transport/codec"
)

// The file is excluded under the race detector, whose sync.Pool drops pooled
// items at random, so the pooled frame encoder is reallocated now and then.

// TestWorkerAnswerSteadyStateAllocs pins the TCP worker's answer to an
// assignment — decode the frame through the session's recycling decoder,
// core.WorkerStep on the worker's one network into its one Upload, encode
// the result — at zero allocations once warm: the decoded sub-model, the
// trained delta and the result all live in buffers the next answer reuses.
// (serveConn adds the stopwatch trainAssignment charges the step with.)
func TestWorkerAnswerSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fam := testFamily()
	srcs, err := fam.Sources(1, core.NonIID{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	src := constSource{srcs[0].Next()}
	_, desc, ws, err := fam.MakePlan(fam.InitWeights(5), 0.4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if _, err := codec.WriteFrame(&frame, &envelope{Kind: kindAssign, Assign: &assignMsg{Round: 1, Desc: desc, Weights: ws, Iters: 2}}); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame.Bytes())
	dec := codec.NewDecoder(rd)
	local := core.NewLocalNet(fam, 0.05, 0.9, 0)
	var up core.Upload
	answer := func() {
		rd.Reset(frame.Bytes())
		e, _, err := dec.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.WorkerStep(local, src, e.Assign, 1, &up)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.WriteFrame(io.Discard, &envelope{Kind: kindResult, Result: res, Quantize: e.Assign.Quantize}); err != nil {
			t.Fatal(err)
		}
	}
	answer()
	if got := testing.AllocsPerRun(20, answer); got != 0 {
		t.Errorf("a warm worker answer allocates %v times, want 0", got)
	}
}

// TestServerReceiveSteadyStateAllocs pins the parameter server's side of the
// exchange: a result decoded through its session's decoder and folded into
// the round's output by core.Output.Receive allocates nothing once warm —
// the delta is decoded into the tensors the session's previous result used,
// and Receive forms the new weights in them.
func TestServerReceiveSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fam := testFamily()
	srcs, err := fam.Sources(1, core.NonIID{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, desc, ws, err := fam.MakePlan(fam.InitWeights(5), 0.4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Assignment{Desc: desc, Weights: ws, Iters: 2}
	res, err := core.WorkerStep(core.NewLocalNet(fam, 0.05, 0.9, 0), constSource{srcs[0].Next()}, a.Frame(1, false).Assign, 1, new(core.Upload))
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if _, err := codec.WriteFrame(&frame, &envelope{Kind: kindResult, Result: res}); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame.Bytes())
	dec := codec.NewDecoder(rd)
	receive := func() {
		rd.Reset(frame.Bytes())
		e, _, err := dec.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		o := core.Output{Assignment: a}
		if err := o.Receive(e.Result); err != nil {
			t.Fatal(err)
		}
	}
	receive()
	if got := testing.AllocsPerRun(20, receive); got != 0 {
		t.Errorf("a warm result receive allocates %v times, want 0", got)
	}
}

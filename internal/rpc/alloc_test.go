package rpc

import (
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// echoCalls makes n synchronous 16-byte ORPC echo calls from node 0 to a
// polling node 1 whose one core commits every call inside the handler.
func echoCalls(t *testing.T, n int) {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	rt := New(u, Options{Mode: ORPC, OAM: oam.Options{Cores: 1}})
	echo := rt.Define("echo", func(e *oam.Env, _ int, arg []byte) []byte {
		e.Compute(sim.Micros(1))
		return arg
	})
	arg := make([]byte, 16)
	done := false
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < n; i++ {
				echo.Call(c, 1, arg)
			}
			done = true
			return
		}
		for !done {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
			c.S.Yield(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Dispatcher().Stats(); st.Succeeded != uint64(n) {
		t.Fatalf("echo did not commit inline: %v", st)
	}
}

// TestInlineCallAllocBudget pins the heap objects one inline ORPC call
// costs end to end, from the client's call record through dispatch and
// commit to the reply: 4. The difference between 11,000 and 1,000 calls
// cancels setup. Stray allocations amortized over the window (slice
// growth, runtime bookkeeping) read as hundredths; one more object per
// call, such as a closure per dispatch, reads as 5.
func TestInlineCallAllocBudget(t *testing.T) {
	small := testing.AllocsPerRun(1, func() { echoCalls(t, 1_000) })
	large := testing.AllocsPerRun(1, func() { echoCalls(t, 11_000) })
	perCall := (large - small) / 10_000
	t.Logf("%.4f allocs per inline call", perCall)
	if perCall > 4.05 {
		t.Fatalf("inline ORPC call allocates %.2f objects, budget 4", perCall)
	}
}

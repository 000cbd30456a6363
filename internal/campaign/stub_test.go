package campaign

import (
	"fmt"
	"time"

	"stabl/internal/chain"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
)

// stubSystem is a minimal chain for exercising the engine: node 0 seals its
// pool into a block twice per second and broadcasts it; every other node
// forwards client transactions to node 0. With panicOnStop set, a validator
// panics when the network halts it — the shape of Solana's EAH panic, where
// a fault turns into a process crash inside the model run.
type stubSystem struct {
	name        string
	panicOnStop bool
}

func (s *stubSystem) Name() string                  { return s.name }
func (s *stubSystem) Tolerance(n int) int           { return chain.ToleranceThird(n) }
func (s *stubSystem) ConnParams() simnet.ConnParams { return simnet.ConnParams{} }

func (s *stubSystem) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis *chain.Genesis) chain.Validator {
	v := &stubValidator{
		base:        chain.NewBaseNode(id, peers, mon, chain.BaseConfig{}),
		panicOnStop: s.panicOnStop,
	}
	v.base.Ledger.Genesis(genesis)
	return v
}

type stubValidator struct {
	base        *chain.BaseNode
	panicOnStop bool
	stubState
}

// stubState is what the stub mutates after construction. All consensus state
// lives in the BaseNode; the ticker and context are identity-preserved
// pointers, so the struct copy is the whole clone.
type stubState struct {
	ctx    *simnet.Context
	ticker interface{ Stop() }
}

type stubForward struct{ Tx chain.Tx }
type stubBlock struct{ Block chain.Block }

func (v *stubValidator) Start(ctx *simnet.Context) {
	v.base.Reset(ctx)
	v.ctx = ctx
	v.base.OnLocalSubmit = func(tx chain.Tx) {
		if v.base.ID != v.base.Peers[0] {
			v.ctx.Send(v.base.Peers[0], stubForward{Tx: tx})
			v.base.Subscribe(tx.ID, v.base.ID)
		}
	}
	if v.base.ID == v.base.Peers[0] {
		v.ticker = ctx.Every(500*time.Millisecond, func() {
			b := chain.Block{
				Height:    v.base.ChainTip(),
				Parent:    v.base.TipHash(),
				Txs:       v.base.Pool.Pop(0),
				DecidedAt: ctx.Now(),
			}
			v.base.SubmitBlock(b)
			ctx.Broadcast(v.base.Peers, stubBlock{Block: b})
		})
	} else if v.base.Ledger.Height() > 0 {
		v.base.StartCatchUp()
	}
}

func (v *stubValidator) Stop() {
	if v.panicOnStop {
		panic(fmt.Sprintf("node %d: accounts hash mismatch", v.base.ID))
	}
	if v.ticker != nil {
		v.ticker.Stop()
	}
}

func (v *stubValidator) Deliver(from simnet.NodeID, payload any) {
	if v.base.HandleClient(from, payload) || v.base.HandleSync(from, payload) {
		return
	}
	switch msg := payload.(type) {
	case stubForward:
		v.base.Pool.Add(msg.Tx)
	case stubBlock:
		v.base.SubmitBlock(msg.Block)
	}
}

func (v *stubValidator) Base() *chain.BaseNode { return v.base }

// stubCheck makes the stub Forkable so adaptive-mode tests exercise real
// checkpoint serving.
type stubCheck struct {
	base chain.BaseState
	stubState
}

func (v *stubValidator) Snapshot() snapshot.State {
	return &stubCheck{base: v.base.SnapshotBase(), stubState: v.stubState}
}

func (v *stubValidator) Restore(state snapshot.State) {
	st, ok := state.(*stubCheck)
	if !ok {
		panic("campaign: stubValidator.Restore on foreign state")
	}
	v.base.RestoreBase(st.base)
	v.stubState = st.stubState
}

// resolveStubs maps "Stub" to the healthy stub chain and "Panicky" to the
// panic-on-halt variant.
func resolveStubs(name string) (chain.System, error) {
	switch name {
	case "Stub":
		return &stubSystem{name: "Stub"}, nil
	case "Panicky":
		return &stubSystem{name: "Panicky", panicOnStop: true}, nil
	default:
		return nil, fmt.Errorf("unknown stub system %q", name)
	}
}

package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"stabl/internal/simnet"
)

// NodeSet selects the validators an action targets. The JSON grammar is a
// compact string:
//
//	"3"              one explicit validator id
//	"7,8,9"          an explicit id list
//	"all"            every validator
//	"random(k)"      k distinct validators drawn (deterministically, from
//	                 the run seed) out of the non-client pool
//	"rolling(k,30s)" the non-client pool chunked into groups of k, each
//	                 group acted on 30 s after the previous one
//
// random and rolling draw only from the validators that serve no clients,
// matching the paper's deployment rule that faulty nodes never receive
// transactions they would otherwise lose.
type NodeSet struct {
	kind  setKind
	ids   []int         // explicit
	k     int           // random / rolling group size
	every time.Duration // rolling stagger
}

type setKind int

const (
	setExplicit setKind = iota
	setAll
	setRandom
	setRolling
)

// ParseNodeSet parses the selector grammar above.
func ParseNodeSet(s string) (NodeSet, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return NodeSet{}, fmt.Errorf("scenario: empty node set")
	case s == "all":
		return NodeSet{kind: setAll}, nil
	case strings.HasPrefix(s, "random(") && strings.HasSuffix(s, ")"):
		k, err := strconv.Atoi(strings.TrimSpace(s[len("random(") : len(s)-1]))
		if err != nil || k < 1 {
			return NodeSet{}, fmt.Errorf("scenario: bad node set %q: random(k) needs a positive integer k", s)
		}
		return NodeSet{kind: setRandom, k: k}, nil
	case strings.HasPrefix(s, "rolling(") && strings.HasSuffix(s, ")"):
		body := s[len("rolling(") : len(s)-1]
		parts := strings.Split(body, ",")
		if len(parts) != 2 {
			return NodeSet{}, fmt.Errorf("scenario: bad node set %q: want rolling(k, everySec)", s)
		}
		k, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil || k < 1 {
			return NodeSet{}, fmt.Errorf("scenario: bad node set %q: rolling group size must be a positive integer", s)
		}
		every, err := parseSeconds(strings.TrimSpace(parts[1]))
		if err != nil || every <= 0 {
			return NodeSet{}, fmt.Errorf("scenario: bad node set %q: rolling stagger must be a positive duration in seconds", s)
		}
		return NodeSet{kind: setRolling, k: k, every: every}, nil
	default:
		fields := strings.Split(s, ",")
		ids := make([]int, 0, len(fields))
		seen := make(map[int]bool, len(fields))
		for _, f := range fields {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || id < 0 {
				return NodeSet{}, fmt.Errorf("scenario: bad node set %q: want ids, all, random(k) or rolling(k, everySec)", s)
			}
			if seen[id] {
				return NodeSet{}, fmt.Errorf("scenario: bad node set %q: duplicate id %d", s, id)
			}
			seen[id] = true
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return NodeSet{kind: setExplicit, ids: ids}, nil
	}
}

// Nodes selects exactly the given validators, in the given order — the order
// the primary signals them in. ParseNodeSet sorts an explicit list; core's
// lowering of a fault plan lists its targets from the highest id downward and
// must keep that order.
func Nodes(ids []simnet.NodeID) NodeSet {
	ns := NodeSet{kind: setExplicit, ids: make([]int, len(ids))}
	for i, id := range ids {
		ns.ids[i] = int(id)
	}
	return ns
}

// parseSeconds accepts both a bare number of seconds ("30", "2.5") and a Go
// duration string ("30s", "150ms").
func parseSeconds(s string) (time.Duration, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(v * float64(time.Second)), nil
	}
	return time.ParseDuration(s)
}

// String renders the selector back into its grammar.
func (ns NodeSet) String() string {
	switch ns.kind {
	case setAll:
		return "all"
	case setRandom:
		return fmt.Sprintf("random(%d)", ns.k)
	case setRolling:
		return fmt.Sprintf("rolling(%d, %g)", ns.k, ns.every.Seconds())
	default:
		parts := make([]string, len(ns.ids))
		for i, id := range ns.ids {
			parts[i] = strconv.Itoa(id)
		}
		return strings.Join(parts, ",")
	}
}

// Rolling reports whether the set expands into a staggered group sequence.
func (ns NodeSet) Rolling() bool { return ns.kind == setRolling }

// resolve materializes the selector against a deployment. For rolling sets
// it returns one group per slice, in stagger order; every other kind
// resolves to a single group.
func (ns NodeSet) resolve(env Env, rng func() *rand.Rand) ([][]simnet.NodeID, error) {
	pool := make([]simnet.NodeID, 0, env.Validators-env.Clients)
	for i := env.Clients; i < env.Validators; i++ {
		pool = append(pool, simnet.NodeID(i))
	}
	switch ns.kind {
	case setAll:
		all := make([]simnet.NodeID, env.Validators)
		for i := range all {
			all[i] = simnet.NodeID(i)
		}
		return [][]simnet.NodeID{all}, nil
	case setExplicit:
		out := make([]simnet.NodeID, 0, len(ns.ids))
		for _, id := range ns.ids {
			if id >= env.Validators {
				return nil, fmt.Errorf("scenario: node %d out of range (validators: %d)", id, env.Validators)
			}
			out = append(out, simnet.NodeID(id))
		}
		return [][]simnet.NodeID{out}, nil
	case setRandom:
		if ns.k > len(pool) {
			return nil, fmt.Errorf("scenario: random(%d) exceeds the %d client-free validators", ns.k, len(pool))
		}
		perm := rng().Perm(len(pool))
		picked := make([]simnet.NodeID, ns.k)
		for i := 0; i < ns.k; i++ {
			picked[i] = pool[perm[i]]
		}
		sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
		return [][]simnet.NodeID{picked}, nil
	case setRolling:
		if len(pool) == 0 {
			return nil, fmt.Errorf("scenario: rolling set needs at least one client-free validator")
		}
		var groups [][]simnet.NodeID
		for start := 0; start < len(pool); start += ns.k {
			end := start + ns.k
			if end > len(pool) {
				end = len(pool)
			}
			groups = append(groups, pool[start:end])
		}
		return groups, nil
	default:
		return nil, fmt.Errorf("scenario: unresolved node set")
	}
}

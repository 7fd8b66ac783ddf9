package core

import (
	"strconv"
)

// CmpOp is a comparison operator used by tag-value predicates in read
// rules.
type CmpOp uint8

// Comparison operators for Rule.TagCmp.
const (
	CmpAny CmpOp = iota // no value constraint
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	switch op {
	case CmpAny:
		return "any"
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}

// Rule selects records from the shared log. Per §3, a rule may involve
// TOIds, LIds, and tag information. Zero values mean "unconstrained".
//
// LId bounds are inclusive except MaxLIdExclusive, which when nonzero
// excludes its value — Hyksos' get-transactions use "LId < i" (Algorithm 1).
type Rule struct {
	// LId constraints (positions in the local datacenter's log).
	MinLId          uint64
	MaxLId          uint64 // inclusive; 0 = unbounded
	MaxLIdExclusive uint64 // exclusive upper bound; 0 = unbounded

	// Host/TOId constraints.
	HasHost bool
	Host    DCID
	MinTOId uint64
	MaxTOId uint64 // inclusive; 0 = unbounded

	// Tag constraints: records must carry a tag with key TagKey. If
	// TagCmp != CmpAny the tag's value must satisfy the comparison
	// against TagValue (numeric when both sides parse as integers,
	// lexicographic otherwise).
	TagKey   string
	TagCmp   CmpOp
	TagValue string

	// Limit caps the number of records returned; 0 means no cap.
	// MostRecent makes the rule return the highest-LId matches (the
	// "most recent x records" lookups of §5.3) rather than the lowest.
	Limit      int
	MostRecent bool
}

// Match reports whether the record satisfies every constraint of the rule.
func (ru *Rule) Match(r *Record) bool {
	if r.LId < ru.MinLId {
		return false
	}
	if ru.MaxLId != 0 && r.LId > ru.MaxLId {
		return false
	}
	if ru.MaxLIdExclusive != 0 && r.LId >= ru.MaxLIdExclusive {
		return false
	}
	if ru.HasHost && r.Host != ru.Host {
		return false
	}
	if r.TOId < ru.MinTOId {
		return false
	}
	if ru.MaxTOId != 0 && r.TOId > ru.MaxTOId {
		return false
	}
	if ru.TagKey != "" {
		v, ok := r.TagValue(ru.TagKey)
		if !ok {
			return false
		}
		if !compareValues(v, ru.TagCmp, ru.TagValue) {
			return false
		}
	}
	return true
}

// EffectiveMaxLId returns the tightest inclusive LId upper bound implied by
// the rule, or 0 if unbounded. The client bounds a rule's range read with it.
func (ru *Rule) EffectiveMaxLId() uint64 {
	max := ru.MaxLId
	if ru.MaxLIdExclusive != 0 {
		ex := ru.MaxLIdExclusive - 1
		if max == 0 || ex < max {
			max = ex
		}
	}
	return max
}

// compareValues applies op between the record's tag value (lhs) and the
// rule's reference value (rhs). If both parse as signed integers the
// comparison is numeric; otherwise it is lexicographic, matching the "values
// greater than i" lookups of §5.3 for integer-valued tags.
func compareValues(lhs string, op CmpOp, rhs string) bool {
	if op == CmpAny {
		return true
	}
	var c int
	li, lerr := strconv.ParseInt(lhs, 10, 64)
	ri, rerr := strconv.ParseInt(rhs, 10, 64)
	if lerr == nil && rerr == nil {
		switch {
		case li < ri:
			c = -1
		case li > ri:
			c = 1
		}
	} else {
		switch {
		case lhs < rhs:
			c = -1
		case lhs > rhs:
			c = 1
		}
	}
	switch op {
	case CmpEQ:
		return c == 0
	case CmpNE:
		return c != 0
	case CmpLT:
		return c < 0
	case CmpLE:
		return c <= 0
	case CmpGT:
		return c > 0
	case CmpGE:
		return c >= 0
	}
	return false
}

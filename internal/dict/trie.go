package dict

import "math"

// Trie is a byte-trie dictionary in the spirit of the cache-conscious
// string dictionaries the paper surveys (Brodal & Fagerberg [21]): Lookup
// cost is O(len(s)) independent of dictionary size, and shared prefixes are
// stored once. Codes follow the sorted assignment shared by all kinds, so a
// depth-first walk of the trie enumerates codes in increasing order.
type Trie struct {
	nodes   []trieNode
	entries []string // id -> string, for Decode
}

type trieNode struct {
	// children maps a byte label to a node index, kept sorted by label so
	// the trie can also answer ordered traversals deterministically.
	labels   []byte
	children []int32
	id       ID   // valid when terminal
	terminal bool // true when a stored string ends here
}

// NewTrie builds a Trie from strictly sorted unique strings.
func NewTrie(sortedUnique []string) (*Trie, error) {
	if len(sortedUnique) >= math.MaxUint32 {
		return nil, ErrFull
	}
	if _, err := NewSorted(sortedUnique); err != nil {
		return nil, err
	}
	t := &Trie{nodes: make([]trieNode, 1, 2*len(sortedUnique)+1)}
	t.entries = make([]string, len(sortedUnique))
	copy(t.entries, sortedUnique)
	for i, s := range t.entries {
		t.insert(s, ID(i))
	}
	return t, nil
}

func (t *Trie) insert(s string, id ID) {
	cur := int32(0)
	for i := 0; i < len(s); i++ {
		b := s[i]
		next := t.child(cur, b)
		if next < 0 {
			t.nodes = append(t.nodes, trieNode{})
			next = int32(len(t.nodes) - 1)
			n := &t.nodes[cur]
			// Insertion from sorted input appends labels in order, but keep
			// the general sorted-insert for safety.
			pos := len(n.labels)
			for pos > 0 && n.labels[pos-1] > b {
				pos--
			}
			n.labels = append(n.labels, 0)
			copy(n.labels[pos+1:], n.labels[pos:])
			n.labels[pos] = b
			n.children = append(n.children, 0)
			copy(n.children[pos+1:], n.children[pos:])
			n.children[pos] = next
		}
		cur = next
	}
	t.nodes[cur].id = id
	t.nodes[cur].terminal = true
}

// child returns the child index of node for label b, or -1.
func (t *Trie) child(node int32, b byte) int32 {
	n := &t.nodes[node]
	// Binary search over the sorted labels.
	lo, hi := 0, len(n.labels)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.labels[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.labels) && n.labels[lo] == b {
		return n.children[lo]
	}
	return -1
}

// Lookup implements Dictionary.
func (t *Trie) Lookup(s string) (ID, bool) {
	cur := int32(0)
	for i := 0; i < len(s); i++ {
		cur = t.child(cur, s[i])
		if cur < 0 {
			return NotFound, false
		}
	}
	n := &t.nodes[cur]
	if !n.terminal {
		return NotFound, false
	}
	return n.id, true
}

// Decode implements Dictionary.
func (t *Trie) Decode(id ID) (string, bool) {
	if !validID(id, len(t.entries)) {
		return "", false
	}
	return t.entries[id], true
}

// Len implements Dictionary.
func (t *Trie) Len() int { return len(t.entries) }

package cachekit

import "container/list"

// LRU is a recency index over sized keys: it knows which keys exist,
// how many bytes each accounts for and how recently each was used, and
// nothing else — it holds no values and does no I/O. Every operation is
// O(1). Not safe for concurrent use: the owner guards it with the lock
// that guards whatever the keys name, and deletes what Evict returns
// after releasing that lock. The zero value is an empty index.
type LRU[K comparable] struct {
	order list.List // of lruEntry[K]; front = least recently used
	byKey map[K]*list.Element
	total int64
}

type lruEntry[K comparable] struct {
	key  K
	size int64
}

// Add records key as the most recently used entry with the given size,
// replacing any previous size.
func (l *LRU[K]) Add(key K, size int64) {
	l.Remove(key)
	if l.byKey == nil {
		l.byKey = make(map[K]*list.Element)
	}
	l.byKey[key] = l.order.PushBack(lruEntry[K]{key, size})
	l.total += size
}

// Touch marks key most recently used and reports whether it is indexed.
func (l *LRU[K]) Touch(key K) bool {
	e, ok := l.byKey[key]
	if ok {
		l.order.MoveToBack(e)
	}
	return ok
}

// Remove drops key from the index, returning the size it accounted for.
func (l *LRU[K]) Remove(key K) (size int64, ok bool) {
	e, ok := l.byKey[key]
	if !ok {
		return 0, false
	}
	delete(l.byKey, key)
	size = l.order.Remove(e).(lruEntry[K]).size
	l.total -= size
	return size, true
}

// Evict removes least recently used entries until at most maxBytes
// (<= 0: unbounded) remain, returning their keys oldest first and their
// combined size. The most recently used entry always survives, even if
// it alone exceeds maxBytes; Remove is how an owner drops that one.
func (l *LRU[K]) Evict(maxBytes int64) (victims []K, freed int64) {
	for maxBytes > 0 && l.total > maxBytes && l.order.Len() > 1 {
		key := l.order.Front().Value.(lruEntry[K]).key
		size, _ := l.Remove(key)
		victims = append(victims, key)
		freed += size
	}
	return victims, freed
}

// Len returns the number of indexed keys.
func (l *LRU[K]) Len() int { return l.order.Len() }

// Size returns the bytes the indexed keys account for.
func (l *LRU[K]) Size() int64 { return l.total }

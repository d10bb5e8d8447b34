package repro.util

import scala.collection.mutable

/** Union-find (disjoint set) over arbitrary keys, with path compression and
  * union by rank. Driver-light: used per name-group inside `mapGroups` (SCR
  * neighbour components, accepted GCN merges), never over the full corpus.
  */
final class UnionFind[K] {
  private val parent = mutable.HashMap.empty[K, K]
  private val rank   = mutable.HashMap.empty[K, Int]

  /** Ensure `k` exists as a singleton set. */
  def add(k: K): Unit = if (!parent.contains(k)) { parent(k) = k; rank(k) = 0 }

  /** Representative of `k`'s set (adds `k` if unseen). */
  def find(k: K): K = {
    add(k)
    var root = k
    while (parent(root) != root) root = parent(root)
    var cur = k
    while (parent(cur) != root) { val next = parent(cur); parent(cur) = root; cur = next }
    root
  }

  /** Merge the sets containing `a` and `b`. */
  def union(a: K, b: K): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) {
      if (rank(ra) < rank(rb)) parent(ra) = rb
      else if (rank(ra) > rank(rb)) parent(rb) = ra
      else { parent(rb) = ra; rank(ra) += 1 }
    }
  }

  def connected(a: K, b: K): Boolean = find(a) == find(b)

  /** Groups of keys, one Seq per component. */
  def groups(): Seq[Seq[K]] =
    parent.keys.toSeq.groupBy(find).values.map(_.toSeq).toSeq
}

package repro.util

import org.scalacheck.Gen
import repro.PropChecks
import repro.SparkSpec

class UnionFindSpec extends SparkSpec with PropChecks {

  test("singletons are their own representatives") {
    val uf = new UnionFind[Int]
    uf.add(1); uf.add(2)
    assert(uf.find(1) === 1)
    assert(uf.find(2) === 2)
    assert(!uf.connected(1, 2))
  }

  test("union connects and is idempotent") {
    val uf = new UnionFind[String]
    uf.union("a", "b")
    uf.union("a", "b")
    assert(uf.connected("a", "b"))
    assert(uf.groups().map(_.toSet) === Seq(Set("a", "b")))
  }

  test("transitivity through chains") {
    val uf = new UnionFind[Int]
    (0 until 99).foreach(i => uf.union(i, i + 1))
    assert(uf.connected(0, 99))
    assert(uf.groups().size === 1)
  }

  test("groups hold every key once, one group per root") {
    val uf = new UnionFind[Int]
    uf.union(1, 2); uf.union(3, 4); uf.add(5)
    assert(uf.groups().map(_.toSet).toSet === Set(Set(1, 2), Set(3, 4), Set(5)))
    assert(uf.groups().flatten.sorted === Seq(1, 2, 3, 4, 5))
  }

  test("find on unseen key auto-adds it") {
    val uf = new UnionFind[String]
    assert(uf.find("fresh") === "fresh")
    assert(uf.groups() === Seq(Seq("fresh")))
  }

  test("property: union order does not change the partition") {
    val edgesGen = Gen.listOf(Gen.zip(Gen.choose(0, 20), Gen.choose(0, 20)))
    forAll(edgesGen) { edges =>
      val uf1 = new UnionFind[Int]
      val uf2 = new UnionFind[Int]
      edges.foreach { case (a, b) => uf1.union(a, b) }
      edges.reverse.foreach { case (a, b) => uf2.union(a, b) }
      val g1 = uf1.groups().map(_.toSet).toSet
      val g2 = uf2.groups().map(_.toSet).toSet
      assert(g1 === g2)
    }
  }

  test("property: connected is an equivalence relation") {
    val edgesGen = Gen.listOf(Gen.zip(Gen.choose(0, 12), Gen.choose(0, 12)))
    forAll(edgesGen) { edges =>
      val uf = new UnionFind[Int]
      (0 to 12).foreach(uf.add)
      edges.foreach { case (a, b) => uf.union(a, b) }
      for (x <- 0 to 12; y <- 0 to 12; z <- 0 to 12) {
        if (uf.connected(x, y) && uf.connected(y, z)) assert(uf.connected(x, z))
        assert(uf.connected(x, y) === uf.connected(y, x))
      }
    }
  }
}

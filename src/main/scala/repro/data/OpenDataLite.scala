package repro.data

import scala.util.Random

/** Synthetic stand-in for the paper's Open Data corpus (69K tables, 119GB).
  *
  * A scaled mixture: the full `WdcLite` families (so discovery queries still
  * have answers) plus several hundred *filler* tables of unique tokens that
  * contribute columns/rows but no joinable pairs — mimicking the long tail
  * of an open-data portal. Used for Table I statistics and scalability-shape
  * checks; workloads run on the ChEMBL/WDC collections like the paper's.
  */
object OpenDataLite {
  def apply(nFiller: Int = 300, seed: Long = 37): TableRepo = {
    val base = WdcLite(seed)
    // A second, renamed family copy: its tables share value universes with
    // the first, so joinable pairs grow super-linearly with tables — the
    // paper's Open Data has 2.5× WDC's joinable pairs with ~7× the tables.
    val copy = WdcLite(seed * 13 + 5).data.map(t => t.copy(name = s"od_${t.name}"))
    val rng = new Random(seed * 31 + 7)
    val fillers = (0 until nFiller).map { j =>
      val nCols = 2 + rng.nextInt(3)
      val nRows = 10 + rng.nextInt(30)
      val cols = (0 until nCols).map(c => s"f${j}_c$c")
      val rows = (0 until nRows).map(r => cols.indices.map(c => f"tok_${j}%03d_${c}_$r%03d"))
      Table(s"filler_$j", cols, rows)
    }
    TableRepo("opendata-lite", base.data ++ copy ++ fillers, base.groundTruths)
  }
}

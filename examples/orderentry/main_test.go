package main

// Example runs the scripted order-entry session and holds it to its output:
// the customer card found by form with its orders detail, the card after an
// order is saved in another window (the detail refreshed by propagation),
// the validation message, and the windows' and engine's counters.
func Example() {
	main()
	// Output:
	// == customer lookup by form (city = Boston) ==
	// 20 Boston customers; current card:
	//
	// + Customer [BROWSE] -------------------------------------------------------+
	// |                                                                          |
	// |   Number  1                                                              |
	// |     Name  Dee Stone                                                      |
	// |     City  Boston                                                         |
	// |   Credit  1803.7                                                         |
	// |    Since  1976-01-12                                                     |
	// |                                                                          |
	// |                                                                          |
	// | + Orders -----------------------------------+                            |
	// | |id       customer placed       total       |                            |
	// | |263      1        1983-03-20   930         |                            |
	// | |369      1        1983-03-25   448.71      |                            |
	// | |387      1        1983-09-04   91.18       |                            |
	// | |450      1        1983-06-17   190.58      |                            |
	// | |606      1        1983-04-24   252.74      |                            |
	// | |652      1        1983-04-20   692.48      |                            |
	// | +-------------------------------------------+                            |
	// |                                                                          |
	// | row 1 of 20                                                              |
	//  20 row(s) selected
	// +--------------------------------------------------------------------------+
	//
	// == entering a new order ==
	// order form status: 1 row(s) saved
	//
	// customer card after the order was entered (detail shows the new order):
	//
	// + Customer [BROWSE] -------------------------------------------------------+
	// |                                                                          |
	// |   Number  1                                                              |
	// |     Name  Dee Stone                                                      |
	// |     City  Boston                                                         |
	// |   Credit  1803.7                                                         |
	// |    Since  1976-01-12                                                     |
	// |                                                                          |
	// |                                                                          |
	// | + Orders -----------------------------------+                            |
	// | |id       customer placed       total       |                            |
	// | |263      1        1983-03-20   930         |                            |
	// | |369      1        1983-03-25   448.71      |                            |
	// | |387      1        1983-09-04   91.18       |                            |
	// | |450      1        1983-06-17   190.58      |                            |
	// | |606      1        1983-04-24   252.74      |                            |
	// | |652      1        1983-04-20   692.48      |                            |
	// | +-------------------------------------------+                            |
	// |                                                                          |
	// | row 1 of 20                                                              |
	//  20 row(s) selected
	// +--------------------------------------------------------------------------+
	//
	// == validation ==
	// attempt to save a negative total: core: total cannot be negative
	//
	// card window stats:  {Keystrokes:10 Repaints:13 CellsPainted:31795 Queries:7 RowsFetched:57 Saves:0 Deletes:0 Refreshes:3}
	// order window stats: {Keystrokes:52 Repaints:53 CellsPainted:110397 Queries:5 RowsFetched:98 Saves:1 Deletes:0 Refreshes:2}
	// windows refreshed by propagation: 1
	// engine: 26 statements prepared, plan cache 0 hits / 18 misses, 180 rows streamed
}

module fulltext/benchmark

go 1.24

require fulltext v0.0.0

replace fulltext => ../

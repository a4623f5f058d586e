module github.com/s3wlan/s3wlan/bench

go 1.22

require github.com/s3wlan/s3wlan v0.0.0

replace github.com/s3wlan/s3wlan => ../
